// Command mirafilter applies similarity-based event filtering to a RAS log
// and emits one row per coalesced incident — the streaming version of the
// paper's filtering step, usable on logs too large to slurp.
//
// Usage:
//
//	mirafilter -in ras.csv|corpus.mirapack [-format auto|csv|pack]
//	           [-window 20m] [-level midplane] [-by-message] [-severity FATAL]
//	           [-where 'cat == Memory and rack == R01']
//
// The input may be a RAS CSV log (streamed row by row) or a corpus.mirapack
// binary snapshot (loaded through pack.ReadFile, no parse); -format
// auto sniffs the file's magic bytes. Events are filtered in time order,
// whatever order the log lists them in.
//
// -where further restricts the events entering the filter with an
// event-column predicate (sev, cat, comp, midplane, rack, time — the same
// grammar as mirareport -where), evaluated through the bitmap selection
// indexes of DESIGN.md §14.
//
// Output columns: first_unix, last_unix, events, location, msg_id,
// category, job_ids (semicolon-separated).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mirafilter:", err)
		os.Exit(1)
	}
}

// run parses args as the command line, writes the incident CSV to stdout
// and the summary line to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mirafilter", flag.ExitOnError)
	in := fs.String("in", "", "RAS CSV log or corpus.mirapack snapshot (required)")
	format := fs.String("format", "auto", "input format: auto (sniff), csv, pack")
	window := fs.Duration("window", 20*time.Minute, "temporal coalescing window")
	level := fs.String("level", "midplane", "spatial similarity level: system|rack|midplane|node-board|node")
	byMsg := fs.Bool("by-message", true, "require identical message IDs (false: same category)")
	sevName := fs.String("severity", "FATAL", "severity to filter: FATAL|WARN|INFO")
	where := fs.String("where", "", "event-column predicate restricting the events entering the filter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	lv, err := parseLevel(*level)
	if err != nil {
		return err
	}
	sev, err := raslog.ParseSeverity(*sevName)
	if err != nil {
		return err
	}
	rule := core.FilterRule{Window: *window, Spatial: lv, SameMessage: *byMsg}
	if err := rule.Validate(); err != nil {
		return err
	}

	events, total, err := readSeverity(*in, *format, sev)
	if err != nil {
		return err
	}
	// The -where time index and the filter read the events in time order;
	// a log that lists them otherwise is put in order here, keeping events
	// of one second in the order the log lists them.
	slices.SortStableFunc(events, func(a, b raslog.Event) int { return a.Time.Compare(b.Time) })
	if *where != "" {
		if events, err = applyWhere(events, *where); err != nil {
			return err
		}
	}
	incidents, err := core.FilterBySeverity(events, sev, rule)
	if err != nil {
		return err
	}

	w := csv.NewWriter(stdout)
	if err := w.Write([]string{"first_unix", "last_unix", "events", "location", "msg_id", "category", "job_ids"}); err != nil {
		return err
	}
	for i := 0; i < incidents.Len(); i++ {
		// The location, message id and category are the first event's.
		first := &events[incidents.Row[i]]
		jobIDs := incidents.JobIDs(i)
		ids := make([]string, len(jobIDs))
		for k, id := range jobIDs {
			ids[k] = strconv.FormatInt(id, 10)
		}
		if err := w.Write([]string{
			strconv.FormatInt(incidents.First[i], 10),
			strconv.FormatInt(incidents.Last[i], 10),
			strconv.Itoa(int(incidents.Events[i])),
			first.Loc.String(),
			first.MsgID,
			string(first.Cat),
			strings.Join(ids, ";"),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "read %d events, %d %s; emitted %d incidents (%.1fx reduction)\n",
		total, len(events), sev, incidents.Len(), reduction(len(events), incidents.Len()))
	return nil
}

// applyWhere keeps the events a -where predicate selects. The column view
// and its indexes are transient (one CLI run, one query), built through
// the same compiler mirareport's cohort path uses.
func applyWhere(events []raslog.Event, where string) ([]raslog.Event, error) {
	expr, err := sel.Parse(where)
	if err != nil {
		return nil, err
	}
	b, err := core.SelectEventsView(core.BuildEventView(events), expr)
	if err != nil {
		return nil, err
	}
	kept := make([]raslog.Event, 0, b.Cardinality())
	b.Iterate(func(row uint32) bool {
		kept = append(kept, events[row])
		return true
	})
	return kept, nil
}

// readSeverity returns the matching-severity events from a RAS CSV log or
// a binary snapshot, plus the total event count seen.
func readSeverity(in, format string, sev raslog.Severity) ([]raslog.Event, int, error) {
	ft, err := pack.ParseFormat(format)
	if err != nil {
		return nil, 0, err
	}
	if ft == pack.FormatPack || (ft == pack.FormatAuto && pack.IsSnapshotFile(in)) {
		// Rebuild records for the matching-severity rows only.
		d, err := pack.ReadFile(in)
		if err != nil {
			return nil, 0, err
		}
		v := d.EventView()
		var rows []int
		for i, s := range v.Sev {
			if raslog.Severity(s) == sev {
				rows = append(rows, i)
			}
		}
		return core.EventRecordsAt(v, rows), v.N, nil
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc, err := raslog.NewScanner(f)
	if err != nil {
		return nil, 0, err
	}
	// Stream the log: the filter needs only the matching-severity events,
	// which are a small fraction of the stream, so collect just those.
	var events []raslog.Event
	total := 0
	for sc.Scan() {
		total++
		if e := sc.Event(); e.Sev == sev {
			events = append(events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return events, total, nil
}

func reduction(raw, filtered int) float64 {
	if filtered == 0 {
		return 0
	}
	return float64(raw) / float64(filtered)
}

func parseLevel(s string) (machine.Level, error) {
	switch s {
	case "system":
		return machine.LevelSystem, nil
	case "rack":
		return machine.LevelRack, nil
	case "midplane":
		return machine.LevelMidplane, nil
	case "node-board":
		return machine.LevelNodeBoard, nil
	case "node":
		return machine.LevelNode, nil
	default:
		return 0, fmt.Errorf("unknown level %q", s)
	}
}
