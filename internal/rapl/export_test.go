package rapl

// LadderFactors exposes a controller's P-state ladder factors to the
// external tests.
func LadderFactors(c *Controller) []float64 { return c.ladder.x }

// ForgetLadders empties the shared ladder table, so the next controllers
// build their ladders afresh.
func ForgetLadders() {
	ladders.Range(func(k, _ any) bool {
		ladders.Delete(k)
		return true
	})
}
