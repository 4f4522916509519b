package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"hap/internal/haperr"
)

// This file provides JSON (de)serialisation for models so the command-line
// tools can work with arbitrary asymmetric HAPs, not just the symmetric
// flag sets.

// MarshalJSONFile writes the model as indented JSON.
func (m *Model) MarshalJSONFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal model: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadModel reads a model from a JSON file and validates it.
func LoadModel(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read model: %w", err)
	}
	return ParseModel(b)
}

// ParseModel decodes and validates a JSON model.
func ParseModel(b []byte) (*Model, error) {
	var m Model
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, haperr.Badf("core: parse model: %v", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
