package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// kindMedian is the geometric mean over job kinds of each kind's median.
// Served-mix latencies cluster by circuit, so a pooled median sits in one
// cluster (or swings between two); this figure moves with every kind, each
// in proportion to its own relative change.
func kindMedian(byKind map[string][]float64) float64 {
	if len(byKind) == 0 {
		return 0
	}
	var logSum float64
	for _, xs := range byKind {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// tail reports the highest percentile that leaves at least ten samples
// beyond it: the (n-10)th smallest value. Below 21 samples that order
// statistic sits at or under the median, so the maximum stands in; label
// says which one was taken.
func tail(xs []float64) (v float64, label string) {
	n := len(xs)
	if n == 0 {
		return 0, "none"
	}
	s := sortedCopy(xs)
	if n < 21 {
		return s[n-1], fmt.Sprintf("max of %d", n)
	}
	return s[n-11], fmt.Sprintf("p%.1f of %d", 100*float64(n-10)/float64(n), n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:")
	return kb / 1024, err
}

// procField reads the first number after prefix on a line of a /proc file.
func procField(path, prefix string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, prefix))
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	return 0, fmt.Errorf("%s: no %q line", path, prefix)
}

// cpuSteal returns the machine's cumulative steal time and total CPU time
// in clock ticks, from the "cpu" line of /proc/stat (zeros when it cannot
// be read).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostHeader describes the machine and the source the numbers come from, so
// a record carries its own context: CPU count as the OS and the Go runtime
// see it, toolchain, CPU model, load at start, and the commit (when the tree
// is a git checkout) plus a digest of every Go source and go.mod file.
func hostHeader() string {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q loadavg=%q commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), load, gitCommit(), sourceDigest("."))
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

// gitCommit resolves HEAD from .git without running git; "none" outside a
// checkout (the benchmark also runs from exported trees).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping dot-directories (build output, VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
