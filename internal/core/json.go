package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"hap/internal/haperr"
)

// This file reads models from JSON so the command-line tools can work with
// arbitrary asymmetric HAPs, not just the symmetric flag sets.

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
