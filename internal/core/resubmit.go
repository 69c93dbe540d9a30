package core

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// ResubmitResult quantifies resubmission behaviour: how quickly users
// resubmit after a failure, and how strongly outcomes repeat across a
// user's consecutive jobs.
type ResubmitResult struct {
	// Transition matrix of consecutive same-user jobs:
	// P(next fails | current fails) and P(next fails | current succeeds).
	PFailAfterFail    float64
	PFailAfterSuccess float64
	// Lift = PFailAfterFail / overall failure rate: > 1 means failures
	// cluster in time within a user's stream.
	Lift float64
	// Pairs counted per predecessor outcome.
	PairsAfterFail    int
	PairsAfterSuccess int
	// Inter-submission gap (current submit → next submit) medians, hours.
	MedianGapAfterFailH    float64
	MedianGapAfterSuccessH float64
	// FastResubmitShare is the fraction of post-failure gaps under one
	// hour — the "fix one flag and resubmit" pattern.
	FastResubmitShare float64
}

// Resubmission analyzes consecutive same-user jobs (ordered by submission,
// then job id) for outcome repetition and resubmission latency: one linear
// pass over the shared (user, submit, id) order.
func (o *JobOrders) Resubmission() (*ResubmitResult, error) {
	v := o.d.JobView()
	res := &ResubmitResult{}
	var failAfterFail, failAfterSuccess int
	fastResubs, totalFailed := 0, 0
	order := o.byUserSubmit()
	// Gaps after a failure fill gaps from the front, gaps after a success
	// from the back.
	gaps := make([]float64, len(order))
	back := len(gaps)
	// Each row's user, submit time and outcome are read once and carried
	// to the next row as its predecessor's.
	var prevUser int32
	var prevSec int64
	prevFails := false
	for k, r := range order {
		user, sec, fails := v.UserID[r], v.SubmitUnix[r], v.Family[r] != 0
		if fails {
			totalFailed++
		}
		if k > 0 && user == prevUser {
			// Inter-submission time: robust to pipelined jobs whose next
			// submission precedes the previous job's end.
			gap := time.Duration(sec-prevSec) * time.Second
			if prevFails {
				res.PairsAfterFail++
				if fails {
					failAfterFail++
				}
				gaps[res.PairsAfterFail-1] = gap.Hours()
				if gap < time.Hour {
					fastResubs++
				}
			} else {
				res.PairsAfterSuccess++
				if fails {
					failAfterSuccess++
				}
				back--
				gaps[back] = gap.Hours()
			}
		}
		prevUser, prevSec, prevFails = user, sec, fails
	}
	if res.PairsAfterFail == 0 || res.PairsAfterSuccess == 0 {
		return nil, fmt.Errorf("core: not enough consecutive job pairs (fail=%d success=%d)",
			res.PairsAfterFail, res.PairsAfterSuccess)
	}
	res.PFailAfterFail = float64(failAfterFail) / float64(res.PairsAfterFail)
	res.PFailAfterSuccess = float64(failAfterSuccess) / float64(res.PairsAfterSuccess)
	overall := float64(totalFailed) / float64(len(order))
	if overall > 0 {
		res.Lift = res.PFailAfterFail / overall
	}
	var err error
	if res.MedianGapAfterFailH, err = stats.Quantile(gaps[:res.PairsAfterFail], 0.5); err != nil {
		return nil, err
	}
	if res.MedianGapAfterSuccessH, err = stats.Quantile(gaps[back:], 0.5); err != nil {
		return nil, err
	}
	res.FastResubmitShare = float64(fastResubs) / float64(res.PairsAfterFail)
	return res, nil
}
