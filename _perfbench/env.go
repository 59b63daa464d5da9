package main

// The environment recorded with every result. Wall-clock figures only
// mean something beside the machine they came from, so each run reports
// it, plus a fixed CPU-loop probe timed before the run: a slow host shows
// next to the numbers. The probe is never used to normalise them.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Env describes the host and the code a result came from.
type Env struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go"`
	CPU        string   `json:"cpu"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source"`
	Daemon     []string `json:"daemonFlags"`
	ProbeMs    float64  `json:"cpuProbeMs"`
}

func recordEnv(root string, daemonFlags []string) Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(root),
		Source:     sourceDigest(root),
		Daemon:     daemonFlags,
		ProbeMs:    ms(cpuProbe()),
	}
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

// commit names the git commit of the checkout, when it is one.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout,
// so a result names the code it measured even where there is no git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

var probeSink uint64

// cpuProbe times a fixed 100M-iteration xorshift loop on one core.
func cpuProbe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
