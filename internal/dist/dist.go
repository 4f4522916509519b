// Package dist provides the random-number machinery of the HAP library:
// seedable streams for independent replications and sources (Streams,
// SubSeed), the batched unit-exponential reader the simulator draws its
// clocks and service times from (ExpBatch), Poisson and weighted
// categorical samplers, and the closed-form laws the tests check against —
// Exponential and Erlang (the G/M/1 reference laws) and HyperExponential
// (a mixture of exponentials, a reference law only: the G/M/1 and core
// tests read moments and CDFs from it).
//
// The laws are immutable value types; construct them with the New*
// functions, which validate parameters.
package dist

import "fmt"

func checkPositive(name string, v float64) {
	if !(v > 0) {
		panic(fmt.Sprintf("dist: %s must be positive, got %v", name, v))
	}
}
