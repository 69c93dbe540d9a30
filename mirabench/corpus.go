package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/sim"
)

// corpusVersion changes whenever prepareCorpus writes something different
// for the same generator and pack code.
const corpusVersion = "mirabench-corpus-1"

// corpusConfig is the paper-scale corpus every workload runs on: 2001
// days, seed 1. The workload seed never changes it; it only drives the
// request stream, so generation (≈26 s) is paid once per checkout.
func corpusConfig() sim.Config { return sim.DefaultConfig() }

// corpusDir returns the directory holding the cached corpus snapshot,
// generating it first when no snapshot exists for the current key. The
// key covers the config, the seed and a digest of the Go sources of the
// generator and the pack codec with everything they import from this
// module, so a change to either never reuses a stale corpus.
func corpusDir(root string, stderr io.Writer) (string, error) {
	key, err := corpusKey(root)
	if err != nil {
		return "", fmt.Errorf("corpus key: %w", err)
	}
	base := filepath.Join(root, ".bench_build")
	dir := filepath.Join(base, "corpus-"+key[:20])
	if _, err := os.Stat(pack.SnapshotPath(dir)); err == nil {
		return dir, nil
	}
	// Stale corpora from earlier sources are dead weight; drop them.
	old, _ := filepath.Glob(filepath.Join(base, "corpus-*"))
	for _, o := range old {
		os.RemoveAll(o)
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	// Generation runs in a child process so its memory never counts in
	// the workload's peak RSS.
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(stderr, "mirabench: generating the %d-day corpus (seed %d) into %s\n",
		corpusConfig().Days, corpusConfig().Seed, dir)
	cmd := exec.Command(exe, "-prepare", tmp)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("corpus generation: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// generateCorpus writes the corpus snapshot into dir (the -prepare mode).
func generateCorpus(dir string) error {
	c, err := sim.GenerateParallel(corpusConfig(), min(2, runtime.NumCPU()))
	if err != nil {
		return err
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		return err
	}
	return pack.WriteFile(pack.SnapshotPath(dir), d)
}

// corpusKey hashes what the cached corpus depends on.
func corpusKey(root string) (string, error) {
	h := sha256.New()
	cfg := corpusConfig()
	fmt.Fprintf(h, "%s\nseed=%d\n%+v\n", corpusVersion, cfg.Seed, cfg)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	h.Write(mod)
	files, err := sourceClosure(root, []string{"internal/sim", "internal/pack"})
	if err != nil {
		return "", err
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sourceClosure lists, sorted, the non-test Go files of the given package
// directories and of every package of this module they import,
// transitively.
func sourceClosure(root string, pkgs []string) ([]string, error) {
	const modPrefix = "repro/"
	seen := map[string]bool{}
	var files []string
	queue := append([]string(nil), pkgs...)
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		entries, err := os.ReadDir(filepath.Join(root, pkg))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			rel := filepath.ToSlash(filepath.Join(pkg, name))
			files = append(files, rel)
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return nil, err
				}
				if strings.HasPrefix(path, modPrefix) {
					queue = append(queue, strings.TrimPrefix(path, modPrefix))
				}
			}
		}
	}
	sort.Strings(files)
	return files, nil
}
