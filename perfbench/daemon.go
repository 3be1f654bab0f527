package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a goldilocksd process started by the benchmark.
type daemon struct {
	cmd        *exec.Cmd
	addr       string // session listener
	metricsURL string // /metrics endpoint; empty unless traced
	exited     chan struct{}

	mu   sync.Mutex
	tail []string // last lines of its log, for error reports
}

var (
	listenRe  = regexp.MustCompile(`msg=listening .*addr=(\S+)`)
	metricsRe = regexp.MustCompile(`msg="serving metrics" .*url=(\S+)`)
)

// startDaemon runs goldilocksd with its default flags plus a checkpoint
// directory, listening on a free local port. traced adds a metrics
// endpoint and samples every record into the stage histograms. It
// returns once the daemon accepts sessions.
func startDaemon(bin, ckptDir string, traced bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-checkpoint-dir", ckptDir}
	if traced {
		args = append(args, "-metrics-addr", "127.0.0.1:0", "-trace-sample", "1")
	}
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting goldilocksd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				d.addr = m[1]
			}
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				d.metricsURL = m[1]
			}
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			up := d.addr != "" && (!traced || d.metricsURL != "")
			d.mu.Unlock()
			if up && !signalled {
				signalled = true
				close(ready)
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("goldilocksd exited during start-up: %s", d.log())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("goldilocksd not ready after 30s: %s", d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop kills the daemon and waits for it to exit. The benchmark's
// sessions are finished and its checkpoint directory is scratch, so
// there is nothing for a graceful shutdown to save.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// peakRSSMB reads the daemon's peak resident set.
func (d *daemon) peakRSSMB() (float64, error) { return pidPeakRSSMB(d.cmd.Process.Pid) }

// scrape is one read of the daemon's /metrics: plain series by their
// full name (labels included) and histograms by base name.
type scrape struct {
	values map[string]float64
	hists  map[string]*promHist
}

// promHist is a cumulative-bucket histogram read from an exposition.
type promHist struct {
	bounds, cum []float64 // upper bounds ascending (+Inf last), cumulative counts
	sum, count  float64
}

var bucketRe = regexp.MustCompile(`^(\S+)_bucket\{le="([^"]+)"\} (\S+)$`)

func (d *daemon) scrape(ctx context.Context) (*scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.metricsURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.metricsURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", d.metricsURL, resp.Status)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (*scrape, error) {
	s := &scrape{values: map[string]float64{}, hists: map[string]*promHist{}}
	hist := func(name string) *promHist {
		h := s.hists[name]
		if h == nil {
			h = &promHist{}
			s.hists[name] = h
		}
		return h
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			le, err1 := strconv.ParseFloat(m[2], 64)
			c, err2 := strconv.ParseFloat(m[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad bucket line %q", line)
			}
			h := hist(m[1])
			h.bounds = append(h.bounds, le)
			h.cum = append(h.cum, c)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		name := line[:i]
		switch {
		case strings.HasSuffix(name, "_sum") && s.hists[strings.TrimSuffix(name, "_sum")] != nil:
			hist(strings.TrimSuffix(name, "_sum")).sum = v
		case strings.HasSuffix(name, "_count") && s.hists[strings.TrimSuffix(name, "_count")] != nil:
			hist(strings.TrimSuffix(name, "_count")).count = v
		default:
			s.values[name] = v
		}
	}
	return s, sc.Err()
}

// quantile interpolates linearly inside the bucket holding rank q·count,
// as the daemon's own histogram does; 0 with no observations.
func (h *promHist) quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := q * h.count
	prevBound, prevCum := 0.0, 0.0
	for i, b := range h.bounds {
		if h.cum[i] >= rank && h.cum[i] > prevCum {
			if math.IsInf(b, 1) {
				return prevBound
			}
			if i == 0 {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCum)/(h.cum[i]-prevCum)
		}
		prevBound, prevCum = b, h.cum[i]
	}
	return prevBound
}

// labelled returns the values of every series of a labelled family,
// e.g. all goldilocksd_session_list_len{session="..."}.
func (s *scrape) labelled(family string) []float64 {
	var out []float64
	for name, v := range s.values {
		if strings.HasPrefix(name, family+"{") {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
