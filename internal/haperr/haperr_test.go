package haperr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// Every binary exits through ExitCode, so one table pins the convention.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("disk full"), ExitError},
		{Badf("rate must be positive (got %v)", -1), ExitUsage},
		{fmt.Errorf("fit: %w", ErrUnstable), ExitUnstable},
		{fmt.Errorf("em: %w", ErrNotConverged), ExitNotConverged},
		{ErrTrivialRoot, ExitNotConverged},
		{fmt.Errorf("solve: %w", context.Canceled), ExitCancelled},
		{context.DeadlineExceeded, ExitCancelled},
		// A cut-off run was never allowed to finish: cancellation outranks.
		{errors.Join(Badf("bad"), context.Canceled), ExitCancelled},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
