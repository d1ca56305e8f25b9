package perfmodel

import "fmt"

// Validate is the audit the tests hold every shipped profile and every
// generated curve to; the profiles are fixed tables, so no run needs it.

// Validate reports configuration errors.
func (c Curve) Validate() error {
	if c.Slack < 0 || c.Slack > 1 {
		return fmt.Errorf("perfmodel: slack %g outside [0,1]", c.Slack)
	}
	if c.Knee < c.Slack || c.Knee > 1 {
		return fmt.Errorf("perfmodel: knee %g outside [slack,1]", c.Knee)
	}
	if c.LossAtKnee < 0 || c.LossAtKnee > 1 {
		return fmt.Errorf("perfmodel: loss at knee %g outside [0,1]", c.LossAtKnee)
	}
	if c.CollapseExp < 0 {
		return fmt.Errorf("perfmodel: negative collapse exponent")
	}
	return nil
}
