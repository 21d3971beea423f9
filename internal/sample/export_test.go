package sample

// RunRegime is Run under an explicit sampling regime, for the tests that
// need more windows, or other offsets, than the derived regime places.
var RunRegime = run
