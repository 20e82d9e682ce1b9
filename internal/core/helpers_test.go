package core

// planFull runs one from-scratch plan through Planner.Plan and drops the
// outcome (always IncFull without a State). A nil ws borrows a pooled
// workspace for the call.
func planFull(pl *Planner, ws *Workspace, req PlanRequest) (Plan, error) {
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	p, _, err := pl.Plan(ws, req)
	return p, err
}
