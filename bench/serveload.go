package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/serve"
)

// poolJob is one pool spec ready to post.
type poolJob struct {
	body []byte // the POST /v1/jobs request
	want string // golden digest of its result CSV
}

// serveRound is an in-process sst-serve over a fresh state directory (in
// the run's iofault.MemFS) and a fresh result cache, reached over loopback
// HTTP like any client would.
type serveRound struct {
	h     *harness
	wl    *workload
	rec   *recorder
	fs    *countFS
	round int

	dir   string
	cache *cache.Cache
	srv   *serve.Server
	http  *http.Server
	serr  chan error
	cli   *http.Client
	base  string
	jobs  []poolJob
}

// newServeRound is a serve workload's set-up: cache, server and listener,
// then the warm-up jobs — for serve.hot the whole pool, which is what
// fills the cache; for serve.cold smoke-sized jobs whose points no timed
// job shares.
func (h *harness) newServeRound(wl *workload, round int, m *measured, fs *countFS, rec *recorder, parent int) (round, error) {
	s := &serveRound{h: h, wl: wl, rec: rec, fs: fs, round: round,
		dir: fmt.Sprintf("state/%s-%d", wl.name, round)}
	for _, spec := range wl.pool {
		want, ok := h.golden[specKey(spec)]
		if !ok {
			return nil, fmt.Errorf("no golden digest for %s (run with -update-golden)", specKey(spec))
		}
		s.jobs = append(s.jobs, poolJob{body: postBody(spec), want: want})
	}
	var err error
	if s.cache, err = core.NewSweepCache(4096, cache.LRU, nil, ""); err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(serve.Config{
		StateDir: s.dir, JobWorkers: h.workers, PointWorkers: 1, QueueCapacity: 16,
		Cache: s.cache, FS: fs,
	}); err != nil {
		return nil, err
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = serve.NewHTTPServer(s.srv.Handler(), 0)
	s.serr = make(chan error, 1)
	go func() { s.serr <- s.http.Serve(ln) }()
	s.cli = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * h.workers}}

	var warm measured
	if wl.allHits {
		order := make([]int, len(s.jobs))
		for i := range order {
			order[i] = i
		}
		s.runJobs(&warm, s.jobs, order, parent, false)
		s.runJobs(&warm, s.jobs, shuffled(wl.jobs/10, len(s.jobs), h.seed, -1-round), parent, false)
	} else {
		// The pool again at smoke scale on the technologies it leaves out:
		// misses like the timed jobs, sharing no point with them.
		var small []poolJob
		for _, spec := range wl.pool {
			spec.Scale, spec.Techs = "small", []string{otherTech[spec.Techs[0]]}
			small = append(small, poolJob{body: postBody(spec)})
		}
		s.runJobs(&warm, small, shuffled(len(small), len(small), h.seed, -1-round), parent, false)
	}
	m.warmFailed += warm.failed
	return s, nil
}

// otherTech maps each technology of serve.cold's pool to one outside it.
var otherTech = map[string]string{"ddr2-800": "ddr3-800", "ddr3-1333": "ddr3-1066", "gddr5-4000": "ddr3-1600"}

func postBody(spec core.JobSpec) []byte {
	body, err := json.Marshal(map[string]any{"tenant": "bench", "spec": spec})
	if err != nil {
		panic(err) // see specKey
	}
	return body
}

// rep posts the round's jobs from W closed-loop clients and folds them,
// and the storage, cache and admission activity they caused, into m.
func (s *serveRound) rep(m *measured, parent int) {
	rs := s.rec.begin(parent, "rep", fmt.Sprintf("round%d", s.round), 0)
	fs0, c0 := s.fs.counts(), s.cache.Stats()
	t0 := time.Now()
	s.runJobs(m, s.jobs, shuffled(s.wl.jobs, len(s.jobs), s.h.seed, s.round), rs, true)
	wall := time.Since(t0)
	s.rec.end(rs)
	c1 := s.cache.Stats()
	m.repS = append(m.repS, wall.Seconds())
	m.fs = m.fs.add(s.fs.counts().sub(fs0))
	m.cacheHits += c1.Hits - c0.Hits
	m.cacheMisses += c1.Misses - c0.Misses
	m.shed += s.shedCount()
}

// shedCount reads the admission queue's shed counter the way an operator
// would: from GET /v1/metrics.
func (s *serveRound) shedCount() int64 {
	resp, err := s.cli.Get(s.base + "/v1/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var rep struct {
		Shed int64 `json:"shed"`
	}
	if json.NewDecoder(resp.Body).Decode(&rep) != nil {
		return 0
	}
	return rep.Shed
}

// jobTimes is one job as its client saw it.
type jobTimes struct {
	ok                         bool
	total, submit, exec, fetch time.Duration
	events, retired            uint64
}

// runJobs runs jobs[order[i]] for every i on W closed-loop clients: each
// posts its next job only after reading the previous one's result CSV. A
// refused, failed or wrong job counts as failed.
func (s *serveRound) runJobs(m *measured, jobs []poolJob, order []int, parent int, timed bool) {
	results := make([]jobTimes, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.h.workers; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				results[i] = s.doJob(&jobs[order[i]], parent, 1+client)
			}
		}(c)
	}
	wg.Wait()
	var events, retired uint64
	var lat []float64
	for _, r := range results {
		m.attempted++
		if !r.ok {
			m.failed++
		}
		if !timed {
			continue
		}
		m.jobs++
		lat = append(lat, float64(r.total)/1e6)
		m.submitMS = append(m.submitMS, float64(r.submit)/1e6)
		m.execMS = append(m.execMS, float64(r.exec)/1e6)
		m.fetchMS = append(m.fetchMS, float64(r.fetch)/1e6)
		events += r.events
		retired += r.retired
	}
	if timed {
		m.noteCounts(events, retired)
		m.noteLatencies(lat)
	}
}

// doJob is one trip through the service: POST /v1/jobs, read
// /v1/jobs/{id}/events to EOF, GET /v1/jobs/{id}/result, check the CSV.
func (s *serveRound) doJob(j *poolJob, parent, lane int) (t jobTimes) {
	js := s.rec.begin(parent, "job", "", lane)
	defer s.rec.end(js)
	t0 := time.Now()
	defer func() { t.total = time.Since(t0) }()

	sub := s.rec.begin(js, "submit", "", lane)
	resp, err := s.cli.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		s.rec.end(sub)
		return t
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.rec.end(sub)
	t.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return t // shed (429) or refused: a failed op
	}
	s.rec.bindJob(st.ID, js)

	t1 := time.Now()
	ex := s.rec.begin(js, "exec", st.ID, lane)
	resp, err = s.cli.Get(s.base + "/v1/jobs/" + st.ID + "/events")
	if err == nil {
		if s.rec != nil {
			t.events, t.retired = sumEvents(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	s.rec.end(ex)
	t.exec = time.Since(t1)
	if err != nil {
		return t
	}

	t2 := time.Now()
	fe := s.rec.begin(js, "fetch", st.ID, lane)
	resp, err = s.cli.Get(s.base + "/v1/jobs/" + st.ID + "/result")
	var csv []byte
	if err == nil {
		csv, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.rec.end(fe)
	t.fetch = time.Since(t2)
	// A job that did not finish cleanly has no CSV or a partial one, so the
	// digest also stands for "terminal state is done". Warm-up jobs outside
	// the pool have no golden and only need a CSV.
	t.ok = err == nil && resp.StatusCode == http.StatusOK && (j.want == "" || digest(csv) == j.want)
	return t
}

// sumEvents reads a job's journal stream and adds up the simulated work its
// points recorded. Only the traced run pays for the parsing.
func sumEvents(r io.Reader) (events, retired uint64) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Result struct {
				Events  uint64
				Retired uint64
			} `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil {
			events += line.Result.Events
			retired += line.Result.Retired
		}
	}
	return events, retired
}

// close checks the round's cache invariant and stops everything the round
// started, waiting for it to end.
func (s *serveRound) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Clients first: Shutdown polls, with a growing back-off, until every
	// connection is idle or gone.
	s.cli.CloseIdleConnections()
	err := s.http.Shutdown(ctx)
	if serr := <-s.serr; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if derr := s.srv.Drain(10 * time.Second); err == nil {
		err = derr
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	if rerr := s.fs.inner.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
