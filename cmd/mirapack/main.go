// Command mirapack converts a CSV corpus directory into a corpus.mirapack
// binary snapshot, and inspects or verifies existing snapshots.
//
// Usage:
//
//	mirapack -in corpus/                  convert CSVs -> corpus/corpus.mirapack
//	mirapack -in corpus/ -out snap.mirapack
//	mirapack -info -in corpus/            print header, sections, checksums,
//	                                      selection-index statistics and the
//	                                      job, task and event columns' mapped
//	                                      bytes
//	mirapack -verify -in snap.mirapack    fully decode, re-encode and
//	                                      report row counts
//
// -in accepts either a corpus directory (the snapshot is resolved to
// corpus.mirapack inside it) or, for -info/-verify, a snapshot file
// directly. Convert loads the CSVs through the same path mirareport uses,
// so a snapshot always holds a fully validated dataset. A load checks
// every section's checksum and every stored value, but reads nothing from
// a section the format does not define, so -verify also re-encodes the
// loaded dataset and requires the file's exact bytes back: a foreign
// section, or sections out of the writer's order, fail there.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/pack"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mirapack:", err)
		os.Exit(1)
	}
}

// run parses args as the command line and converts, inspects or
// verifies.
func run(args []string) error {
	fs := flag.NewFlagSet("mirapack", flag.ExitOnError)
	in := fs.String("in", "", "corpus directory, or snapshot file for -info/-verify (required)")
	out := fs.String("out", "", "snapshot output path (default: corpus.mirapack inside -in)")
	info := fs.Bool("info", false, "print the snapshot's header summary instead of converting")
	verify := fs.Bool("verify", false, "fully decode the snapshot instead of converting")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	switch {
	case *info:
		return printInfo(snapshotArg(*in))
	case *verify:
		return verifySnapshot(snapshotArg(*in))
	default:
		return convert(*in, *out)
	}
}

// snapshotArg resolves -in to a snapshot file: a directory means the
// conventional corpus.mirapack inside it.
func snapshotArg(in string) string {
	if st, err := os.Stat(in); err == nil && st.IsDir() {
		return pack.SnapshotPath(in)
	}
	return in
}

func convert(dir, out string) error {
	if out == "" {
		out = pack.SnapshotPath(dir)
	}
	d, err := pack.LoadCSVDir(dir)
	if err != nil {
		return err
	}
	if err := pack.WriteFile(out, d); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes): %d jobs, %d tasks, %d RAS events, %d I/O records\n",
		out, st.Size(), d.JobView().N, d.TaskView().N, d.EventView().N, len(d.IO))
	return nil
}

func printInfo(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	inf, err := pack.Inspect(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: mirapack v%d, %d bytes\n", path, inf.Version, len(data))
	fmt.Printf("%-10s %12s %10s\n", "section", "bytes", "crc32")
	for _, s := range inf.Sections {
		fmt.Printf("%-10s %12d   %08x\n", s.Name, s.Bytes, s.CRC)
	}

	// Selection-index report: decode the snapshot and build the per-column
	// bitmap indexes the -where predicates compile against, so operators can
	// see each dimension's cardinality and compressed footprint up front.
	d, err := pack.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("\nselection indexes (see mirareport -where)\n")
	fmt.Printf("%-6s %-10s %8s %12s %12s\n", "table", "column", "keys", "rows", "bytes")
	for _, s := range d.IndexStats() {
		fmt.Printf("%-6s %-10s %8d %12d %12d\n", s.Domain, s.Column, s.Keys, s.Rows, s.Bytes)
	}
	// The loaded job, task and event logs are their column views alone,
	// adopted from the mapped file (their dictionaries are on the heap);
	// report what each maps.
	fmt.Println()
	for _, c := range []struct {
		name     string
		n, bytes int
	}{
		{"job", d.JobView().N, d.JobView().Bytes()},
		{"task", d.TaskView().N, d.TaskView().Bytes()},
		{"event", d.EventView().N, d.EventView().Bytes()},
	} {
		fmt.Printf("%s columns: %d %ss, %d mapped bytes, %.1f bytes per %s\n",
			c.name, c.n, c.name, c.bytes, float64(c.bytes)/float64(max(c.n, 1)), c.name)
	}
	return nil
}

func verifySnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	d, err := verifyImage(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	start, end := d.Span()
	fmt.Printf("%s: ok — %d jobs, %d tasks, %d RAS events, %d I/O records, %s to %s\n",
		path, d.JobView().N, d.TaskView().N, d.EventView().N, len(d.IO),
		start.Format("2006-01-02"), end.Format("2006-01-02"))
	return nil
}

// verifyImage decodes a snapshot image and checks that the loaded dataset
// re-encodes to the same bytes.
func verifyImage(data []byte) (*core.Dataset, error) {
	d, err := pack.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(pack.Marshal(d), data) {
		return nil, fmt.Errorf("snapshot decodes but does not re-encode to its own bytes: it is stale or was not written by this encoder")
	}
	return d, nil
}
