package core

import "time"

// JointOptions tunes the joint (RAS-correlated) classification.
type JointOptions struct {
	// Tolerance is the maximum |event time − job end| for a FATAL event to
	// be considered the cause of the job's termination.
	Tolerance time.Duration
}

// DefaultJointOptions matches the paper's methodology: a FATAL event within
// ±5 minutes of the job's end, on hardware the job occupied, marks the
// failure as system-caused.
func DefaultJointOptions() JointOptions {
	return JointOptions{Tolerance: 5 * time.Minute}
}
