package collio

// RuleDiffs lets the external chaos-grid test (package collio_test, which
// may import the strategies built on collio) compare the remerge rules
// over the plans those strategies make.
var RuleDiffs = ruleDiffs

// PerRound runs f with every rank taking every round's barrier on its
// own, the reference the standing path is held to.
func PerRound(f func()) {
	perRound = true
	defer func() { perRound = false }()
	f()
}
