package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/service"
	"repro/internal/store"
)

// serveEnv is one in-process axserve, configured as
// `axserve -data-dir <dir>` configures it (a disk cache tier bounded at
// 512 MiB, a synced write-ahead job log, 2 jobs in flight) but with a
// 256 KiB memory craft budget, a quarter of what `-cache-mb 1` allows,
// so a short pass overflows it.
type serveEnv struct {
	dir        string
	disk, wal  *store.Store
	mgr        *service.Manager
	srv        *httptest.Server
	httpClient *http.Client
}

func openServe(dir string) (*serveEnv, error) {
	e := &serveEnv{dir: dir}
	var err error
	if e.disk, err = store.Open(store.Options{Dir: filepath.Join(dir, "cache"), MaxBytes: 512 << 20}); err != nil {
		return nil, err
	}
	if e.wal, err = store.Open(store.Options{Dir: filepath.Join(dir, "wal"), Sync: true}); err != nil {
		e.disk.Close()
		return nil, err
	}
	e.mgr = service.NewManager(service.Config{
		Workers: 2,
		Cache:   core.NewCache(core.CacheConfig{CraftBudget: 256 << 10 / 4, Disk: e.disk}),
		Log:     e.wal,
	})
	e.srv = httptest.NewServer(service.NewHandler(e.mgr))
	e.httpClient = e.srv.Client()
	return e, nil
}

// close drains the manager, stops the server, closes both stores and
// deletes the data dir, so no later pass inherits a warm store.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.mgr.Close(ctx)
	e.srv.Close()
	if cerr := e.disk.Close(); err == nil {
		err = cerr
	}
	if cerr := e.wal.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// jobResult is one closed-loop submission, from POST to CSV in hand.
type jobResult struct {
	key     string // pinned-report key
	id      string
	created bool
	latency float64 // seconds
	submit  float64 // seconds spent in the POST
	csv     []byte
	err     error
}

// session runs one closed loop per client over its job sequence:
// each client submits its next job only once the previous job's CSV is
// in hand. It returns each client's job results in order and the wall
// time from the first submit to the last CSV.
func (e *serveEnv) session(ctx context.Context, seqs [clients][]*experiment.Spec) ([clients][]jobResult, float64) {
	var res [clients][]jobResult
	var wg sync.WaitGroup
	start := time.Now()
	for c, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range seq {
				res[c] = append(res[c], e.job(ctx, spec))
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start).Seconds()
}

func (e *serveEnv) job(ctx context.Context, spec *experiment.Spec) jobResult {
	t0 := time.Now()
	var r jobResult
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	var sub service.SubmitResponse
	if err := e.call(ctx, http.MethodPost, "/v1/suites", body, &sub); err != nil {
		r.err = err
		return r
	}
	r.submit = time.Since(t0).Seconds()
	r.id, r.created, r.key = sub.Job.ID, sub.Created, jobKey(sub.Job.ID)
	// The event stream closes once the terminal event is delivered.
	if err := e.call(ctx, http.MethodGet, "/v1/suites/"+r.id+"/events", nil, nil); err != nil {
		r.err = err
		return r
	}
	var csvBuf bytes.Buffer
	if err := e.call(ctx, http.MethodGet, "/v1/suites/"+r.id+"/report?format=csv", nil, &csvBuf); err != nil {
		r.err = err
		return r
	}
	r.csv = csvBuf.Bytes()
	r.latency = time.Since(t0).Seconds()
	return r
}

// call performs one request. out may be nil (body drained), a
// *bytes.Buffer (raw body) or a JSON target.
func (e *serveEnv) call(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := e.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	switch o := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *bytes.Buffer:
		_, err = o.ReadFrom(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return err
}

// scrape reads the service's /metrics into a map keyed by the sample
// name with its labels, e.g. `ax_store_put_duration_seconds_sum`.
func (e *serveEnv) scrape(ctx context.Context) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := e.call(ctx, http.MethodGet, "/metrics", nil, &buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histMeanMS returns the mean in ms of a scraped histogram's samples
// between two scrapes; 0 when it saw none.
func histMeanMS(before, after map[string]float64, name, labels string) float64 {
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return 1000 * (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / n
}
