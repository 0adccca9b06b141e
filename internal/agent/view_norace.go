//go:build !race

package agent

func (v *agentView) poison() {}
