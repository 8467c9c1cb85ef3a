package worker

// RefTopKEligible exposes the reference selection to this directory's
// external tests, which build whole worlds through internal/core.
var RefTopKEligible = refTopKEligible
