// Package wrap seeds the report-time rules vetutil.Wrap applies for every
// analyzer. The test's toy analyzer, "toy", reports each call to bad.
package wrap

func bad() {}

func plain() {
	bad() // want `call to bad`
}

func audited() {
	bad() //botvet:ignore toy fixture: same-line audit with a reason
	//botvet:ignore toy fixture: an audit on the line above covers the next line
	bad()
}

// reasonless: an ignore without a reason suppresses nothing and is
// reported where it stands, next to the finding it failed to cover.
func reasonless() {
	bad() /* want `call to bad` `//botvet:ignore toy carries no reason` */ //botvet:ignore toy
}

// otherAnalyzer: an audit names exactly one analyzer; another's does not
// cover this one, and a bare ignore for another analyzer is that
// analyzer's to report.
func otherAnalyzer() {
	bad() /* want `call to bad` */ //botvet:ignore goleak audited for a different analyzer
	bad() /* want `call to bad` */ //botvet:ignore goleak
}

// tooFar: the audit reaches its own line and the next, no further.
func tooFar() {
	//botvet:ignore toy fixture: two lines above is out of reach

	bad() // want `call to bad`
}
