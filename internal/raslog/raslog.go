// Package raslog models the Blue Gene/Q reliability, availability and
// serviceability (RAS) event log: hardware- and system-software events with
// a message ID, component, category, severity, timestamp and hardware
// location, optionally attributed to a job.
//
// The message catalog is a representative reconstruction of the BG/Q RAS
// taxonomy (the real IBM catalog has ~1,500 message IDs across the same
// component/category axes).
package raslog

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fastcsv"
	"repro/internal/machine"
)

// Severity of a RAS event.
type Severity int

// Severities, ordered by increasing seriousness.
const (
	Info Severity = iota + 1
	Warn
	Fatal
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Fatal:
		return "FATAL"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// ParseSeverity parses the string form produced by String.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "INFO":
		return Info, nil
	case "WARN":
		return Warn, nil
	case "FATAL":
		return Fatal, nil
	default:
		return 0, fmt.Errorf("raslog: unknown severity %q", s)
	}
}

// Category is the functional area an event belongs to.
type Category string

// Categories of RAS events.
const (
	CatMemory   Category = "Memory"   // DDR correctable/uncorrectable errors
	CatNetwork  Category = "Network"  // 5D torus links, message unit
	CatNode     Category = "Node"     // compute-node hardware (BQC chip)
	CatIO       Category = "IO"       // I/O nodes, CIOS, file-system paths
	CatSoftware Category = "Software" // kernel (CNK), control system
	CatPower    Category = "Power"    // bulk power modules
	CatCooling  Category = "Cooling"  // coolant monitors
	CatInfra    Category = "Infra"    // service infrastructure (MMCS, DB)
)

// Component is the reporting subsystem.
type Component string

// Components reporting RAS events.
const (
	CompCNK   Component = "CNK"   // compute node kernel
	CompMMCS  Component = "MMCS"  // control system
	CompMC    Component = "MC"    // machine controller
	CompDDR   Component = "DDR"   // memory controller
	CompND    Component = "ND"    // network device (torus)
	CompMU    Component = "MU"    // message unit
	CompPCI   Component = "PCI"   // PCIe/I/O path
	CompCIOS  Component = "CIOS"  // I/O services
	CompBPM   Component = "BPM"   // bulk power module
	CompCOOL  Component = "COOL"  // coolant monitor
	CompBAREM Component = "BAREM" // bare-metal diagnostics
)

// Event is one RAS log record.
type Event struct {
	RecID   int64            // unique record id
	MsgID   string           // message id, e.g. "000B0004"
	Comp    Component        // reporting component
	Cat     Category         // functional category
	Sev     Severity         // INFO / WARN / FATAL
	Time    time.Time        // event time
	Loc     machine.Location // hardware location
	JobID   int64            // associated job, 0 if none
	Message string           // human-readable text
	Count   int              // hardware-coalesced repetition count (≥1)
}

// Service-action message IDs: repairs are bracketed by a begin/end pair at
// the affected midplane.
const (
	MsgServiceBegin = "00240001"
	MsgServiceEnd   = "00240002"
)

// CatalogEntry describes one message ID in the reconstructed catalog.
type CatalogEntry struct {
	MsgID   string
	Comp    Component
	Cat     Category
	Sev     Severity
	Message string
	// LocLevel is the hardware granularity this message reports at.
	LocLevel machine.Level
}

// Catalog returns the reconstructed message catalog: a representative set
// of BG/Q-style RAS messages spanning every component/category/severity
// combination the analyses exercise.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		// Memory.
		{"00040001", CompDDR, CatMemory, Info, "DDR correctable error summary", machine.LevelNode},
		{"00040002", CompDDR, CatMemory, Warn, "DDR correctable error threshold exceeded", machine.LevelNode},
		{"00040003", CompDDR, CatMemory, Fatal, "DDR uncorrectable memory error", machine.LevelNode},
		{"00040004", CompDDR, CatMemory, Fatal, "DDR controller initialization failure", machine.LevelNodeBoard},
		// Network.
		{"00080001", CompND, CatNetwork, Info, "torus link retraining", machine.LevelNodeBoard},
		{"00080002", CompND, CatNetwork, Warn, "torus link CRC error rate high", machine.LevelNodeBoard},
		{"00080003", CompND, CatNetwork, Fatal, "torus link failure", machine.LevelNodeBoard},
		{"00080004", CompMU, CatNetwork, Fatal, "message unit ECC fatal", machine.LevelNode},
		// Node hardware.
		{"000C0001", CompBAREM, CatNode, Warn, "BQC chip temperature high", machine.LevelNode},
		{"000C0002", CompBAREM, CatNode, Fatal, "BQC processor machine check", machine.LevelNode},
		{"000C0003", CompMC, CatNode, Fatal, "node board voltage fault", machine.LevelNodeBoard},
		// IO.
		{"00100001", CompCIOS, CatIO, Info, "I/O node heartbeat delayed", machine.LevelRack},
		{"00100002", CompCIOS, CatIO, Warn, "file-system path degraded", machine.LevelRack},
		{"00100003", CompPCI, CatIO, Fatal, "PCIe adapter failure on I/O path", machine.LevelRack},
		{"00100004", CompCIOS, CatIO, Fatal, "I/O node kernel panic", machine.LevelRack},
		// Software.
		{"00140001", CompCNK, CatSoftware, Info, "application RAS event", machine.LevelNode},
		{"00140002", CompCNK, CatSoftware, Warn, "CNK detected stuck thread", machine.LevelNode},
		{"00140003", CompCNK, CatSoftware, Fatal, "kernel internal assertion", machine.LevelNode},
		{"00140004", CompMMCS, CatSoftware, Fatal, "control system lost contact with block", machine.LevelMidplane},
		// Power.
		{"00180001", CompBPM, CatPower, Warn, "bulk power module current imbalance", machine.LevelRack},
		{"00180002", CompBPM, CatPower, Fatal, "bulk power module failure", machine.LevelRack},
		// Cooling.
		{"001C0001", CompCOOL, CatCooling, Warn, "coolant temperature above nominal", machine.LevelRack},
		{"001C0002", CompCOOL, CatCooling, Fatal, "coolant flow loss", machine.LevelRack},
		// Service actions (hardware repair windows). Begin/end pairs at the
		// affected midplane let downtime be derived from the log alone.
		{MsgServiceBegin, CompMMCS, CatInfra, Info, "service action begin", machine.LevelMidplane},
		{MsgServiceEnd, CompMMCS, CatInfra, Info, "service action end", machine.LevelMidplane},
		// Infrastructure.
		{"00200001", CompMMCS, CatInfra, Info, "database reconnect", machine.LevelSystem},
		{"00200002", CompMMCS, CatInfra, Warn, "service node load high", machine.LevelSystem},
		{"00200003", CompMMCS, CatInfra, Fatal, "service node failover", machine.LevelSystem},
	}
}

// CatalogByID returns the catalog indexed by message ID.
func CatalogByID() map[string]CatalogEntry {
	entries := Catalog()
	m := make(map[string]CatalogEntry, len(entries))
	for _, e := range entries {
		m[e.MsgID] = e
	}
	return m
}

var header = []string{
	"rec_id", "msg_id", "component", "category", "severity", "time_unix",
	"location", "job_id", "count", "message",
}

// encoder caches WriteCSV's per-column string materializations: hardware
// locations repeat heavily, so their String() rendering is computed once
// per distinct location.
type encoder struct {
	fw   *fastcsv.Writer
	locs map[machine.Location]string
}

func newEncoder(w io.Writer) *encoder {
	fw := fastcsv.NewWriter(w)
	for _, h := range header {
		fw.String(h)
	}
	fw.EndRecord()
	return &encoder{fw: fw, locs: make(map[machine.Location]string, 256)}
}

func (enc *encoder) event(e *Event) {
	fw := enc.fw
	fw.Int64(e.RecID)
	fw.String(e.MsgID)
	fw.String(string(e.Comp))
	fw.String(string(e.Cat))
	fw.String(e.Sev.String())
	fw.Int64(e.Time.Unix())
	s, ok := enc.locs[e.Loc]
	if !ok {
		s = e.Loc.String()
		enc.locs[e.Loc] = s
	}
	fw.String(s)
	fw.Int64(e.JobID)
	fw.Int(e.Count)
	fw.String(e.Message)
	fw.EndRecord()
}

// WriteCSV writes events to w, header first.
func WriteCSV(w io.Writer, events []Event) error {
	enc := newEncoder(w)
	for i := range events {
		enc.event(&events[i])
	}
	if err := enc.fw.Flush(); err != nil {
		return fmt.Errorf("raslog: write events: %w", err)
	}
	return nil
}

// decoder caches the per-column parses shared by ReadCSV and the streaming
// Scanner: the categorical columns (message id, component, category,
// message text) intern to a tiny vocabulary, and location strings parse
// once per distinct location instead of once per row.
type decoder struct {
	intern *fastcsv.Interner
	locs   map[string]machine.Location
}

func newDecoder() *decoder {
	return &decoder{intern: fastcsv.NewInterner(), locs: make(map[string]machine.Location, 256)}
}

func (d *decoder) location(b []byte) (machine.Location, error) {
	if loc, ok := d.locs[string(b)]; ok {
		return loc, nil
	}
	loc, err := machine.ParseLocation(string(b))
	if err != nil {
		return machine.Location{}, err
	}
	d.locs[string(b)] = loc
	return loc, nil
}

// headerOK checks the first record the way the encoding/csv codec did:
// field count plus leading column name.
func headerOK(first [][]byte) bool {
	return len(first) == len(header) && string(first[0]) == header[0]
}

// headerStrings materializes a record for error messages only.
func headerStrings(rec [][]byte) []string {
	out := make([]string, len(rec))
	for i, f := range rec {
		out[i] = string(f)
	}
	return out
}

// ReadCSV reads an event log written by WriteCSV.
func ReadCSV(r io.Reader) ([]Event, error) {
	cr := fastcsv.NewReader(r)
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("raslog: read header: %w", err)
	}
	if !headerOK(first) {
		return nil, fmt.Errorf("raslog: unexpected header %v", headerStrings(first))
	}
	dec := newDecoder()
	var events []Event
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("raslog: line %d: %w", line, err)
		}
		e, err := dec.parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("raslog: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	return events, nil
}

// parseSeverity parses a severity column without materializing a string.
func parseSeverity(b []byte) (Severity, error) {
	switch string(b) {
	case "INFO":
		return Info, nil
	case "WARN":
		return Warn, nil
	case "FATAL":
		return Fatal, nil
	default:
		return 0, fmt.Errorf("raslog: unknown severity %q", b)
	}
}

func (d *decoder) parseRow(rec [][]byte) (Event, error) {
	if len(rec) != len(header) {
		return Event{}, fmt.Errorf("want %d fields, got %d", len(header), len(rec))
	}
	var e Event
	var err error
	if e.RecID, err = fastcsv.Int64(rec[0]); err != nil {
		return Event{}, fmt.Errorf("rec_id: %w", err)
	}
	e.MsgID = d.intern.Intern(rec[1])
	e.Comp = Component(d.intern.Intern(rec[2]))
	e.Cat = Category(d.intern.Intern(rec[3]))
	if e.Sev, err = parseSeverity(rec[4]); err != nil {
		return Event{}, err
	}
	ts, err := fastcsv.Int64(rec[5])
	if err != nil {
		return Event{}, fmt.Errorf("time_unix: %w", err)
	}
	e.Time = time.Unix(ts, 0).UTC()
	if e.Loc, err = d.location(rec[6]); err != nil {
		return Event{}, err
	}
	if e.JobID, err = fastcsv.Int64(rec[7]); err != nil {
		return Event{}, fmt.Errorf("job_id: %w", err)
	}
	if e.Count, err = fastcsv.Int(rec[8]); err != nil {
		return Event{}, fmt.Errorf("count: %w", err)
	}
	e.Message = d.intern.Intern(rec[9])
	return e, nil
}
