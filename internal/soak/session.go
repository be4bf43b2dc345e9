package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"softbound/internal/driver"
	"softbound/internal/experiments"
	"softbound/internal/gen"
	"softbound/internal/serve"
)

// SessionConfig controls a long-running session soak: a stream of
// generated FTP-daemon request programs POSTed through a live sbserve,
// holding the service to structured responses, baseline-identical
// outputs, and bounded metadata-table occupancy.
type SessionConfig struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total number of /run POSTs (default 1000).
	Requests int
	// Programs is how many distinct generated programs the stream cycles
	// through (default 32) — a compile-cache-friendly working set.
	Programs int
	// Concurrency is the number of client workers (default 4).
	Concurrency int
	// Seed salts the generated scripts.
	Seed uint64
	// Commands per script (default 20) and daemon sessions per run
	// (default 2) size each request's work.
	Commands int
	Sessions int
	// Scheme and Mode select the checked configuration (defaults
	// "shadowspace", "full").
	Scheme string
	Mode   string
	// MaxLive / MaxTableBytes bound the server's per-run metadata
	// occupancy high-water marks (0 disables the bound).
	MaxLive       int64
	MaxTableBytes int64
	// Log, when set, receives progress lines.
	Log io.Writer
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Programs <= 0 {
		c.Programs = 32
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Commands <= 0 {
		c.Commands = 20
	}
	if c.Sessions <= 0 {
		c.Sessions = 2
	}
	if c.Scheme == "" {
		c.Scheme = "shadowspace"
	}
	if c.Mode == "" {
		c.Mode = "full"
	}
	return c
}

// SessionReport is the SOAK_SESSION.json schema (schema 1).
type SessionReport struct {
	Schema      int      `json:"schema"`
	Seed        uint64   `json:"seed"`
	Requests    int      `json:"requests"`
	Programs    int      `json:"programs"`
	CacheHits   int64    `json:"cache_hits"`
	Failures    int      `json:"failures"`
	FailureList []string `json:"failure_list,omitempty"`

	// Server-side metadata health at the end of the stream.
	MetaRuns     uint64 `json:"meta_runs"`
	MetaLiveMax  int64  `json:"meta_live_max"`
	MetaBytesMax int64  `json:"meta_bytes_max"`

	BoundViolations []string `json:"bound_violations,omitempty"`
	WallNanos       int64    `json:"wall_nanos"`
}

// Failed reports whether the session soak broke any invariant.
func (r *SessionReport) Failed() bool {
	return r.Failures > 0 || len(r.BoundViolations) > 0
}

// expected is a request program plus the locally-computed ground truth
// every server response must reproduce.
type expected struct {
	source string
	exit   int64
	output string
}

// RunSession drives a session soak against a live server. The returned
// error covers setup problems (unreachable server, a generated program
// that fails its local baseline); request-level failures and bound
// violations are reported in the SessionReport.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	// Ground truth first: each program's exit and output computed
	// locally with checking off. The server runs the same program
	// checked; any difference is a finding.
	programs := make([]expected, cfg.Programs)
	for i := range programs {
		script := gen.FTPScript(cfg.Seed+uint64(i), cfg.Commands)
		src := experiments.FtpdSession(script, cfg.Sessions)
		res, err := driver.RunSource(src, driver.DefaultConfig(driver.ModeNone))
		if err != nil {
			return nil, fmt.Errorf("session program %d failed local baseline: %w", i, err)
		}
		if res.Trap != nil || res.ExitCode != 0 {
			return nil, fmt.Errorf("session program %d: local baseline exit=%d trap=%v", i, res.ExitCode, res.TrapCode())
		}
		programs[i] = expected{source: src, exit: res.ExitCode, output: res.Output}
	}

	rep := &SessionReport{Schema: 1, Seed: cfg.Seed, Requests: cfg.Requests, Programs: cfg.Programs}
	client := &http.Client{Timeout: 60 * time.Second}

	var next, cacheHits int64
	var mu sync.Mutex
	fail := func(format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		rep.Failures++
		if len(rep.FailureList) < 20 {
			rep.FailureList = append(rep.FailureList, fmt.Sprintf(format, a...))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				p := programs[i%int64(len(programs))]
				resp, err := postRun(ctx, client, cfg, p.source)
				if err != nil {
					fail("request %d: %v", i, err)
					continue
				}
				if resp.CacheHit {
					atomic.AddInt64(&cacheHits, 1)
				}
				switch {
				case resp.TrapCode != "" || resp.Error != "":
					fail("request %d: unstructured response trap=%q error=%q", i, resp.TrapCode, resp.Error)
				case resp.ExitCode != p.exit || resp.Output != p.output:
					fail("request %d: exit=%d output %q, want exit=%d output %q",
						i, resp.ExitCode, clip(resp.Output), p.exit, clip(p.output))
				}
				if cfg.Log != nil && (i+1)%1000 == 0 {
					fmt.Fprintf(cfg.Log, "session: %d/%d requests, %d failures\n", i+1, cfg.Requests, rep.Failures)
				}
			}
		}()
	}
	wg.Wait()
	rep.CacheHits = atomic.LoadInt64(&cacheHits)

	statz, err := getStatz(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("final /statz poll: %w", err)
	}
	rep.MetaRuns = statz.Meta.Runs
	rep.MetaLiveMax = statz.Meta.LiveMax
	rep.MetaBytesMax = statz.Meta.TableBytesMax

	if cfg.MaxLive > 0 && statz.Meta.LiveMax > cfg.MaxLive {
		rep.BoundViolations = append(rep.BoundViolations,
			fmt.Sprintf("live entries high-water %d exceeds bound %d", statz.Meta.LiveMax, cfg.MaxLive))
	}
	if cfg.MaxTableBytes > 0 && statz.Meta.TableBytesMax > cfg.MaxTableBytes {
		rep.BoundViolations = append(rep.BoundViolations,
			fmt.Sprintf("table bytes high-water %d exceeds bound %d", statz.Meta.TableBytesMax, cfg.MaxTableBytes))
	}
	rep.WallNanos = time.Since(start).Nanoseconds()
	return rep, nil
}

// postRun POSTs one /run request, absorbing backpressure: 429/503
// responses sleep out their Retry-After and try again rather than
// counting as failures — an overloaded-but-honest server is healthy.
func postRun(ctx context.Context, client *http.Client, cfg SessionConfig, source string) (*serve.Response, error) {
	body, err := json.Marshal(serve.Request{Source: source, Scheme: cfg.Scheme, Mode: cfg.Mode})
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/run", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		httpResp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(httpResp.Body)
		httpResp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch httpResp.StatusCode {
		case http.StatusOK:
			var resp serve.Response
			if err := json.Unmarshal(data, &resp); err != nil {
				return nil, fmt.Errorf("bad 200 body: %w", err)
			}
			return &resp, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt >= 100 {
				return nil, fmt.Errorf("still %d after %d attempts", httpResp.StatusCode, attempt+1)
			}
			delay := 25 * time.Millisecond
			var eb serve.ErrorBody
			if json.Unmarshal(data, &eb) == nil && eb.RetryAfterMillis > 0 {
				delay = time.Duration(eb.RetryAfterMillis) * time.Millisecond
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		default:
			return nil, fmt.Errorf("status %d: %s", httpResp.StatusCode, clip(string(data)))
		}
	}
}

func getStatz(ctx context.Context, client *http.Client, base string) (*serve.Statz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statz", nil)
	if err != nil {
		return nil, err
	}
	httpResp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", httpResp.StatusCode)
	}
	var st serve.Statz
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
