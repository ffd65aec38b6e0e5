package server

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfm"
	"repro/internal/harness"
	"repro/internal/lru"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// Config sizes the service. DefaultConfig is dfmd's deployed policy;
// a zero Queue or MaxWait means exactly that.
type Config struct {
	// Workers is the evaluation pool width; 0 means GOMAXPROCS.
	Workers int
	// Queue is the admission-queue capacity beyond in-flight work. A
	// full queue sheds with 429.
	Queue int
	// MaxWait is the admission-control wait budget: when the live
	// estimate of queue wait (depth x recent latency / workers)
	// exceeds it, the server sheds even though the queue has room.
	// 0 sheds only on a full queue.
	MaxWait time.Duration
	// CacheSize is the result-cache entry cap; 0 means 1024.
	CacheSize int
	// DefaultTimeout is the evaluation budget of every job; 0 means
	// 2m.
	DefaultTimeout time.Duration

	// TaskFactory overrides job-task construction (tests and contract
	// suites inject gated tasks to exercise admission and shutdown
	// deterministically).
	TaskFactory func(req JobRequest) (harness.Task, error)
}

// DefaultConfig is the policy dfmd deploys with: a 64-job queue and
// 30 s of estimated wait before shedding.
func DefaultConfig() Config {
	return Config{Queue: 64, MaxWait: 30 * time.Second}
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.TaskFactory == nil {
		c.TaskFactory = func(req JobRequest) (harness.Task, error) {
			if req.Kind == KindTile {
				tr := req.Tile
				return harness.Task{
					Name: req.Kind + "/" + tr.Stage,
					Run: func(ctx context.Context, _ int) (any, error) {
						return tiling.ExecuteTile(ctx, tr)
					},
				}, nil
			}
			return dfm.TechniqueTask(tech.N45(), req.Technique, req.Seed, dfm.DefaultBlock())
		}
	}
	return c
}

// Shed errors returned by submit; the HTTP layer maps them to 429/503.
var (
	errOverloaded = errors.New("server: overloaded")
	errDraining   = errors.New("server: shutting down")
)

// job is one submission: what it asked for, and how it settled. The
// outcome and tile are written once, before done closes, and read only
// after.
type job struct {
	key     string
	kind    string // "" for technique evaluations, KindTile for tiles
	created time.Time

	cached  bool
	deduped bool

	outcome dfm.Outcome
	tile    *tiling.TileResult
	done    chan struct{}
}

// Stats is the server's accounting, always on and the only record of
// these counts (the obs registry holds just the e2e latency).
type Stats struct {
	Submitted   int64   `json:"submitted"`
	Admitted    int64   `json:"admitted"`
	Shed        int64   `json:"shed"`
	Deduped     int64   `json:"deduped"`
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Rejected    int64   `json:"rejected"`
	QueueDepth  int     `json:"queueDepth"`
	InFlight    int     `json:"inFlight"`
	CacheLen    int     `json:"cacheLen"`
	EWMAMS      float64 `json:"ewmaLatencyMs"`
	Draining    bool    `json:"draining"`
}

// Server schedules evaluation jobs on a persistent harness pool with
// admission control, singleflight dedup, and a content-addressed
// result cache. Zero value is not usable; call New.
type Server struct {
	cfg  Config
	pool *harness.Pool

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu sync.Mutex
	// flights holds, per content key in evaluation, the jobs waiting
	// on it: the first submission and every identical one since.
	flights map[string][]*job
	// cache holds clean results by content address — dfm.Outcome for
	// technique evaluations, *tiling.TileResult for tile jobs (the kind
	// is recoverable from the stored type). A timeout or fault is not a
	// property of the layout and is never stored, so a hit is always
	// served as done.
	cache *lru.Cache[string, any]

	draining atomic.Bool
	ewmaNs   atomic.Int64 // EWMA of evaluation latency
	watchers sync.WaitGroup

	// A cache miss is an admission: both follow the same successful
	// pool.Submit, so Stats reports admitted as CacheMisses.
	submitted, admitted, shed, deduped, cacheHits atomic.Int64
	completed, failed, rejected                   atomic.Int64
}

// New builds the service and starts its worker pool. The caller owns
// Shutdown.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		pool:       harness.NewPool(harness.Options{Workers: cfg.Workers}, cfg.Queue),
		baseCtx:    ctx,
		cancelBase: cancel,
		flights:    make(map[string][]*job),
		cache:      lru.New[string, any](cfg.CacheSize),
	}
}

// submit admits one request. It returns the job, whose done closes
// when it settles, errOverloaded (with a retry-after hint) when
// shedding, errDraining during shutdown, or a validation error.
func (s *Server) submit(req JobRequest) (*job, time.Duration, error) {
	s.submitted.Add(1)
	if s.draining.Load() {
		return nil, 0, errDraining
	}
	rq, err := resolve(req)
	if err != nil {
		return nil, 0, err
	}
	key := rq.key
	task, err := s.cfg.TaskFactory(req)
	if err != nil {
		return nil, 0, err
	}
	task.Timeout = s.cfg.DefaultTimeout

	s.mu.Lock()
	defer s.mu.Unlock()
	// Again under mu, which Shutdown flips draining under: a job admitted
	// here joins watchers before Shutdown waits on them.
	if s.draining.Load() {
		return nil, 0, errDraining
	}

	j := &job{
		key:     key,
		kind:    rq.kind, // "" for evals: statuses keep the pre-tile wire shape
		created: time.Now(),
		done:    make(chan struct{}),
	}

	// Content-addressed cache: a prior identical request already paid
	// for this evaluation.
	if v, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		j.cached = true
		switch cv := v.(type) {
		case *tiling.TileResult:
			j.settle(dfm.Outcome{}, cv)
		case dfm.Outcome:
			j.settle(cv, nil) // cached outcomes are always clean: done
		}
		s.completed.Add(1)
		mE2E.ObserveSince(j.created)
		return j, 0, nil
	}

	// Singleflight: an identical evaluation is already in flight;
	// attach instead of re-evaluating.
	if f, ok := s.flights[key]; ok {
		s.deduped.Add(1)
		j.deduped = true
		s.flights[key] = append(f, j)
		return j, 0, nil
	}

	// Admission control on live pool signals: estimated wait is the
	// work ahead of us (queued + running) times recent per-eval
	// latency, spread over the workers.
	if wait := s.estimatedWait(); s.cfg.MaxWait > 0 && wait > s.cfg.MaxWait {
		s.shed.Add(1)
		return nil, wait, errOverloaded
	}

	ch, err := s.pool.Submit(s.baseCtx, task)
	if err != nil {
		// ErrQueueFull (hard shed) or ErrPoolClosed (drain raced us).
		if errors.Is(err, harness.ErrPoolClosed) {
			return nil, 0, errDraining
		}
		s.shed.Add(1)
		return nil, s.estimatedWait(), errOverloaded
	}
	s.admitted.Add(1)
	s.flights[key] = []*job{j}
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		s.complete(key, <-ch)
	}()
	return j, 0, nil
}

// estimatedWait projects how long a newly queued job would sit before
// a worker picks it up, from the live queue depth, in-flight count,
// and the latency EWMA.
func (s *Server) estimatedWait() time.Duration {
	ewma := s.ewmaNs.Load()
	if ewma == 0 {
		return 0
	}
	ahead := s.pool.QueueDepth() + s.pool.InFlight()
	return time.Duration(math.Ceil(float64(ahead) * float64(ewma) / float64(s.pool.Workers())))
}

// complete settles every job attached to the flight with the pool
// result: the outcome dfm.OutcomeOf folds, and the tile result unless
// the task failed.
func (s *Server) complete(key string, res harness.Result) {
	o := dfm.OutcomeOf(res)
	tile, _ := res.Value.(*tiling.TileResult)
	if res.Err != nil {
		tile = nil
	}

	s.mu.Lock()
	jobs := s.flights[key]
	delete(s.flights, key)
	if o.Err == nil {
		if tile != nil {
			s.cache.Put(key, tile)
		} else {
			s.cache.Put(key, o)
		}
		s.updateEWMA(res.Runtime)
	}
	for _, j := range jobs {
		// Counted before settling: settle wakes the job's waiter, and a
		// client whose submission was just answered must find its own
		// job in /metrics.
		mE2E.ObserveSince(j.created)
		switch {
		case errors.Is(o.Err, harness.ErrPoolClosed):
			s.rejected.Add(1)
		case o.Err != nil:
			s.failed.Add(1)
		default:
			s.completed.Add(1)
		}
		j.settle(o, tile)
	}
	s.mu.Unlock()
}

// updateEWMA folds one clean evaluation latency into the admission
// estimate (alpha = 0.2).
func (s *Server) updateEWMA(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		next := int64(d)
		if old != 0 {
			next = int64(0.8*float64(old) + 0.2*float64(d))
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// settle records how the job ended and wakes its waiter. Tile jobs
// settle into tile, never a technique Result; failed ones carry only
// the error.
func (j *job) settle(o dfm.Outcome, tile *tiling.TileResult) {
	j.outcome = o
	j.tile = tile
	close(j.done)
}

// status is the settled job's answer; call it only once done has
// closed.
func (j *job) status() JobStatus {
	st := JobStatus{
		State:   StateDone,
		Kind:    j.kind,
		Key:     j.key,
		Cached:  j.cached,
		Deduped: j.deduped,
		Tile:    j.tile,
	}
	switch err := j.outcome.Err; {
	case errors.Is(err, harness.ErrPoolClosed):
		st.State, st.Error = StateFailed, "rejected: server shutting down before evaluation started"
	case err != nil:
		st.State, st.Error = StateFailed, err.Error()
	}
	if j.tile == nil && j.kind == "" {
		v := dfm.NewOutcomeView(j.outcome)
		st.Result = &v
	}
	return st
}

// Stats snapshots the server counters and live pool signals.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:   s.submitted.Load(),
		Admitted:    s.admitted.Load(),
		Shed:        s.shed.Load(),
		Deduped:     s.deduped.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.admitted.Load(),
		Completed:   s.completed.Load(),
		Failed:      s.failed.Load(),
		Rejected:    s.rejected.Load(),
		QueueDepth:  s.pool.QueueDepth(),
		InFlight:    s.pool.InFlight(),
		CacheLen:    s.cache.Len(),
		EWMAMS:      float64(s.ewmaNs.Load()) / 1e6,
		Draining:    s.draining.Load(),
	}
}

// Shutdown drains the service: new submissions are rejected with 503,
// queued jobs settle with a clean rejection, in-flight evaluations
// run to completion — unless ctx expires first, which force-cancels
// them through the harness context paths. Every job is settled when
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	closed := make(chan struct{})
	go func() {
		s.pool.Close()
		close(closed)
	}()
	var err error
	select {
	case <-closed:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // force: in-flight evaluators see cancellation
		<-closed
	}
	s.watchers.Wait()
	s.cancelBase()
	return err
}
