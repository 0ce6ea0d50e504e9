package wrap

// Diagnostics in _test.go files are dropped for every analyzer, the
// reasonless-ignore report included.
func inTest() {
	bad()
	bad() //botvet:ignore toy
}
