package policy

import (
	"errors"
	"fmt"

	"vmdeflate/internal/resources"
)

// The name-keyed form of a decision the table tests read; the cluster
// manager consumes TargetsInto's positions directly.

// Result is a policy decision in map form.
type Result struct {
	// Targets maps VM name to its new target allocation.
	Targets map[string]resources.Vector
	// Freed is the decrease of total allocation relative to Current
	// (negative components mean the policy reinflated).
	Freed resources.Vector
}

// targets is a policy decision in map form: TargetsInto with the result
// keyed by VM name and the insufficiency error spelled out by dimension.
func targets(p Policy, vms []VMState, need resources.Vector) (Result, error) {
	var s Scratch
	sr, err := p.TargetsInto(vms, need, &s)
	targets := make(map[string]resources.Vector, len(vms))
	for i := range vms {
		targets[vms[i].Name] = sr.Targets[i]
	}
	if errors.Is(err, ErrInsufficient) {
		err = describeInsufficient(sr.Freed, need)
	}
	return Result{Targets: targets, Freed: sr.Freed}, err
}

// describeInsufficient formats the first dimension whose need cannot be
// met — the detailed error of the map API.
func describeInsufficient(freed, need resources.Vector) error {
	for _, k := range resources.Kinds {
		if freed.Get(k)+feasEps < need.Get(k) {
			return fmt.Errorf("%w: %s freed %.3f of %.3f needed",
				ErrInsufficient, k, freed.Get(k), need.Get(k))
		}
	}
	return ErrInsufficient
}
