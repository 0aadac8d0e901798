package collio

// RuleDiffs lets the external chaos-grid test (package collio_test, which
// may import the strategies built on collio) compare the remerge rules
// over the plans those strategies make.
var RuleDiffs = ruleDiffs
