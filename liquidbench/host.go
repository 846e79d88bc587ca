package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// buildDir is where the benchmark keeps its build, scratch stores and
// results, relative to the checkout root it runs from.
const buildDir = ".bench_build"

// host identifies the machine and source a result was measured on:
// absolute numbers from another host, or another tree, are not evidence.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Commit is the git commit of the checkout, when it is a git
	// checkout; Source is a SHA-256 over every file of the tree, which
	// identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func hostRecord(root string) (host, error) {
	src, err := sourceHash(root)
	if err != nil {
		return host{}, err
	}
	return host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitCommit(root),
		Source:     src,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly; "" when the tree is
// not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceHash hashes the path and content of every regular file under
// root, skipping the build directory and git metadata.
func sourceHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing the source tree: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hashing the source tree: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// record is the file written beside every result: the host, the run's
// parameters, its metrics and the digest of its reports.
type record struct {
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Result   resultLine        `json:"result"`
	Notes    map[string]string `json:"notes,omitempty"`
	Digest   string            `json:"report_digest"`
}

// saveRecord writes the record under the results directory and checks
// the run's report digest against the first run of the same workload and
// seed on the same source: the reports of one seed must be identical
// across runs, traced or not.
func saveRecord(root string, rec record) (path string, err error) {
	dir := filepath.Join(root, buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	digestPath := filepath.Join(dir, fmt.Sprintf("digest-%s-seed%d-%.16s", rec.Workload, rec.Seed, rec.Host.Source))
	if prev, err := os.ReadFile(digestPath); err == nil {
		if string(prev) != rec.Digest {
			return "", fmt.Errorf("reports differ from an earlier run of seed %d: digest %.16s, earlier %.16s",
				rec.Seed, rec.Digest, prev)
		}
	} else if err := os.WriteFile(digestPath, []byte(rec.Digest), 0o644); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	mode := "e2e"
	if rec.Trace {
		mode = "traced"
	}
	path = filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d.json", rec.Workload, rec.Seed, mode, os.Getpid()))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
