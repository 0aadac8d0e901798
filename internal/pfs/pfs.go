// Package pfs simulates a Lustre-like striped parallel file system.
//
// A file is striped round-robin across object storage targets (OSTs)
// in fixed stripe units (the paper's testbed used 1 MB units over all
// servers). Each OST is a bandwidth/latency resource; every request an
// OST serves pays a fixed per-request overhead (RPC + seek) plus
// size/bandwidth. That overhead is what makes many small noncontiguous
// requests slow and few large contiguous requests fast — the property
// collective I/O exists to exploit.
//
// Data is stored sparsely per file in fixed-size blocks so functional
// tests can verify every byte; phantom payloads exercise the same cost
// accounting without storing anything.
package pfs

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// storeBlock is the granularity of the sparse byte store. It is a
// storage-efficiency knob only; it has no effect on timing.
const storeBlock = 256 << 10

// Config describes the storage system.
type Config struct {
	OSTs       int
	StripeUnit int64   // bytes per stripe
	OSTBW      float64 // per-OST streaming bandwidth, bytes/s
	OSTLatency float64 // per-request overhead (RPC + seek), seconds

	// JitterMean adds an exponentially distributed extra delay to each
	// request's completion, modelling shared-storage interference (lock
	// ping-pong, seek storms, competing jobs). Zero disables it. Many
	// small rounds each pay the *maximum* jitter of their in-flight
	// requests, which is why small collective buffers decay on real
	// systems.
	JitterMean float64
	// Seed drives the deterministic jitter stream.
	Seed uint64
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.OSTs <= 0 {
		return fmt.Errorf("pfs: OSTs must be positive, got %d", c.OSTs)
	}
	if c.StripeUnit <= 0 {
		return fmt.Errorf("pfs: StripeUnit must be positive, got %d", c.StripeUnit)
	}
	if c.OSTBW <= 0 {
		return fmt.Errorf("pfs: OSTBW must be positive, got %g", c.OSTBW)
	}
	if c.OSTLatency < 0 {
		return fmt.Errorf("pfs: negative OSTLatency %g", c.OSTLatency)
	}
	if c.JitterMean < 0 {
		return fmt.Errorf("pfs: negative JitterMean %g", c.JitterMean)
	}
	return nil
}

// DefaultConfig mirrors the paper's testbed storage: 1 MB stripes over
// a DataDirect-class backend. Per-OST bandwidth and count are chosen so
// aggregate streaming capacity is a few GB/s.
func DefaultConfig() Config {
	return Config{
		OSTs:       16,
		StripeUnit: 1 * cluster.MB,
		OSTBW:      400 * float64(cluster.MB),
		OSTLatency: 500e-6,
	}
}

// FS is a simulated parallel file system mounted on a machine.
type FS struct {
	cfg     Config
	machine *cluster.Machine
	osts    []*resource.Link
	files   map[string]*fileData
	rng     *stats.RNG
	faults  *faults.Schedule // nil = no straggler-OST faults

	// Per-node client paths and splitByOST scratch, built once at New.
	// Paths are ordered views over shared *Link state, so one cached
	// entry per node replaces a NewPath per request; the run scratch
	// replaces the map+sort that dominated allocation in request-heavy
	// sweeps. Both are touched only from simulation context, which the
	// engine serializes, and runs is fully consumed before any yield.
	storeTx  []resource.Path // node -> client write path (membus, NIC tx, I/O net)
	storeRx  []resource.Path // node -> client read-return path (I/O net, NIC rx, membus)
	runBytes []int64         // per-OST accumulator, zeroed after each split
	runs     []ostRun        // reusable splitByOST result

	met fsMetrics
}

// fsMetrics bundles the storage-layer instrument handles, resolved
// once at New (the machine's registry must be attached before the file
// system is mounted). Per-OST counters are an array so the per-run
// update is one atomic add with no lookup.
type fsMetrics struct {
	reqs       [2]*metrics.Counter // indexed by opRead/opWrite
	bytes      [2]*metrics.Counter
	batchBytes [2]*metrics.Histogram // service-batch sizes per op
	ostRuns    []*metrics.Counter    // per-OST service runs
	ostBytes   []*metrics.Counter    // per-OST bytes served
}

const (
	opRead = iota
	opWrite
)

// opNames and opPhases name each direction in metric labels and traces.
var (
	opNames  = [2]string{"read", "write"}
	opPhases = [2]obs.Phase{obs.PhasePFSRead, obs.PhasePFSWrite}
)

func newFSMetrics(r *metrics.Registry, osts int) fsMetrics {
	var fm fsMetrics
	for i, op := range opNames {
		fm.reqs[i] = r.Counter("pfs_requests_total",
			"Requests served by the parallel file system.", "op", op)
		fm.bytes[i] = r.Counter("pfs_bytes_total",
			"Bytes moved to or from the parallel file system.", "op", op)
		fm.batchBytes[i] = r.Histogram("pfs_batch_bytes",
			"Size of each request batch serviced.", metrics.DefBytesBuckets(), "op", op)
	}
	if r != nil {
		fm.ostRuns = make([]*metrics.Counter, osts)
		fm.ostBytes = make([]*metrics.Counter, osts)
		for i := 0; i < osts; i++ {
			id := fmt.Sprintf("%d", i)
			fm.ostRuns[i] = r.Counter("pfs_ost_runs_total",
				"Contiguous per-OST service runs (one client RPC each).", "ost", id)
			fm.ostBytes[i] = r.Counter("pfs_ost_bytes_total",
				"Bytes served per OST.", "ost", id)
		}
	}
	return fm
}

// stripe accounts one per-OST run; nil-safe when metrics are off.
func (fm *fsMetrics) stripe(run ostRun) {
	if fm.ostRuns == nil {
		return
	}
	fm.ostRuns[run.ost].Inc()
	fm.ostBytes[run.ost].Add(float64(run.bytes))
}

// batch accounts one request batch of n bytes and reqs per-OST runs.
func (fm *fsMetrics) batch(op int, n, reqs int64) {
	fm.reqs[op].Add(float64(reqs))
	fm.bytes[op].Add(float64(n))
	fm.batchBytes[op].Observe(float64(n))
}

type fileData struct {
	blocks map[int64][]byte // block index -> storage (lazily allocated)
	size   int64            // highest written offset + 1
}

// New mounts a file system with cfg on machine m.
func New(cfg Config, m *cluster.Machine) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{cfg: cfg, machine: m, files: make(map[string]*fileData), rng: stats.NewRNG(cfg.Seed ^ 0x5f5),
		met: newFSMetrics(m.Metrics(), cfg.OSTs)}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, resource.NewLink(fmt.Sprintf("ost%d", i), cfg.OSTBW, cfg.OSTLatency))
	}
	fs.storeTx = make([]resource.Path, m.NumNodes())
	fs.storeRx = make([]resource.Path, m.NumNodes())
	for r := 0; r < m.NumRanks(); r++ {
		sn := m.NodeOfRank(r)
		if len(fs.storeTx[sn].Links()) == 0 {
			fs.storeTx[sn] = m.StoragePath(r)
			fs.storeRx[sn] = m.StorageReturnPath(r)
		}
	}
	fs.runBytes = make([]int64, cfg.OSTs)
	fs.runs = make([]ostRun, 0, cfg.OSTs)
	return fs, nil
}

// Open returns a handle on name, creating the file if needed.
func (fs *FS) Open(name string) *File {
	fd := fs.files[name]
	if fd == nil {
		fd = &fileData{blocks: make(map[int64][]byte)}
		fs.files[name] = fd
	}
	return &File{fs: fs, data: fd}
}

// traceLoc is the issuing rank's track identity for service spans.
func (fs *FS) traceLoc(rank int) obs.Loc {
	return obs.Loc{Rank: rank, Node: fs.machine.NodeOfRank(rank), Group: -1, Round: -1}
}

// traceStripe records one per-OST service run as an instant event when
// tracing is attached and as per-OST counters when metrics are
// attached (nil-safe otherwise).
func (fs *FS) traceStripe(t *obs.Tracer, loc obs.Loc, run ostRun) {
	t.Instant(obs.EventStripe, loc, run.bytes, int64(run.ost))
	fs.met.stripe(run)
}

// SetFaults attaches a fault schedule; straggler-OST entries stretch
// matching requests' service time. Nil detaches.
func (fs *FS) SetFaults(s *faults.Schedule) { fs.faults = s }

// slowEnd stretches one request's service interval [now, end) when a
// straggler fault is active on its OST.
func (fs *FS) slowEnd(now, end float64, ost int) float64 {
	if fs.faults == nil {
		return end
	}
	if f := fs.faults.OSTFactor(ost, now); f > 1 {
		return now + (end-now)*f
	}
	return end
}

// jitter draws one request's interference delay.
func (fs *FS) jitter() float64 {
	if fs.cfg.JitterMean <= 0 {
		return 0
	}
	return fs.rng.Exp(fs.cfg.JitterMean)
}

// File is a handle on a (simulated) striped file.
type File struct {
	fs   *FS
	data *fileData
}

// Size returns one past the highest byte ever written.
func (f *File) Size() int64 { return f.data.size }

// ostRun is a contiguous-in-object-space run of bytes on one OST.
type ostRun struct {
	ost   int
	bytes int64
}

// splitByOST decomposes the file extent [off, off+n) into per-OST runs,
// ascending by OST. Stripes land round-robin, so within one contiguous
// file extent each OST's pieces are contiguous in its object space and
// count as a single request (Lustre clients batch exactly this way).
// The returned slice is FS-owned scratch, valid until the next call;
// callers consume it before yielding to the engine.
func (fs *FS) splitByOST(off, n int64) []ostRun {
	if n == 0 {
		return nil
	}
	su := fs.cfg.StripeUnit
	pos := off
	remaining := n
	for remaining > 0 {
		stripe := pos / su
		inStripe := su - pos%su
		if inStripe > remaining {
			inStripe = remaining
		}
		ost := int(stripe % int64(fs.cfg.OSTs))
		fs.runBytes[ost] += inStripe
		pos += inStripe
		remaining -= inStripe
	}
	fs.runs = fs.runs[:0]
	for ost, b := range fs.runBytes {
		if b != 0 {
			fs.runs = append(fs.runs, ostRun{ost: ost, bytes: b})
			fs.runBytes[ost] = 0
		}
	}
	return fs.runs
}

// WriteAt writes buf at file offset off on behalf of rank, blocking p
// for the simulated duration. Per-OST requests are issued concurrently;
// the call completes when the slowest OST finishes. Returns the virtual
// completion time.
func (f *File) WriteAt(p *simtime.Proc, rank int, off int64, buf buffer.Buf) float64 {
	if buf.Len() == 0 {
		return p.Now()
	}
	return f.transfer(opWrite, p, rank, []int64{off}, []buffer.Buf{buf})
}

// ReadAt fills dst from file offset off on behalf of rank, blocking p
// for the simulated duration. Unwritten bytes read as zero. Returns the
// virtual completion time.
func (f *File) ReadAt(p *simtime.Proc, rank int, off int64, dst buffer.Buf) float64 {
	if dst.Len() == 0 {
		return p.Now()
	}
	return f.transfer(opRead, p, rank, []int64{off}, []buffer.Buf{dst})
}

// WriteVec writes several (offset, payload) runs as one pipelined batch
// on behalf of rank: all requests are issued concurrently (as a real
// parallel-file-system client would keep them in flight) and the call
// completes when the slowest finishes. Returns the completion time.
func (f *File) WriteVec(p *simtime.Proc, rank int, offs []int64, bufs []buffer.Buf) float64 {
	return f.transfer(opWrite, p, rank, offs, bufs)
}

// ReadVec reads several (offset, destination) runs as one pipelined
// batch; see WriteVec.
func (f *File) ReadVec(p *simtime.Proc, rank int, offs []int64, bufs []buffer.Buf) float64 {
	return f.transfer(opRead, p, rank, offs, bufs)
}

// transfer is the one request loop under every entry point: it moves
// the (offset, buffer) runs of one batch in direction op (opRead or
// opWrite) on behalf of rank, splitting each run into per-OST requests
// that are all in flight at once, and blocks p until the slowest
// finishes. Writes ride the node's client path onto the OST's tail;
// reads return over it from the OST's head.
func (f *File) transfer(op int, p *simtime.Proc, rank int, offs []int64, bufs []buffer.Buf) float64 {
	if len(offs) != len(bufs) {
		panic(fmt.Sprintf("pfs: %s batch with %d offsets, %d payloads", opNames[op], len(offs), len(bufs)))
	}
	fs := f.fs
	t := fs.machine.Tracer()
	loc := fs.traceLoc(rank)
	sp := t.Begin(opPhases[op], loc)
	node := fs.machine.NodeOfRank(rank)
	done := p.Now()
	var reqs, bytes int64
	for i, off := range offs {
		n := bufs[i].Len()
		if n == 0 {
			continue
		}
		if off < 0 {
			panic(fmt.Sprintf("pfs: %s at negative offset %d", opNames[op], off))
		}
		if op == opWrite {
			f.storeBytes(off, bufs[i])
		} else {
			f.loadBytes(off, bufs[i])
		}
		for _, run := range fs.splitByOST(off, n) {
			var end float64
			if op == opWrite {
				end = fs.storeTx[node].ReserveTail(p.Now(), run.bytes, fs.osts[run.ost])
			} else {
				end = fs.storeRx[node].ReserveHead(p.Now(), run.bytes, fs.osts[run.ost])
			}
			end = fs.slowEnd(p.Now(), end, run.ost) + fs.jitter()
			if end > done {
				done = end
			}
			reqs++
			fs.traceStripe(t, loc, run)
		}
		bytes += n
	}
	fs.met.batch(op, bytes, reqs)
	p.WaitUntil(done)
	sp.EndBytes(bytes, reqs)
	return done
}

// storeBytes persists a real payload into the sparse block store.
// Phantom payloads only extend the file size.
func (f *File) storeBytes(off int64, buf buffer.Buf) {
	n := buf.Len()
	if off+n > f.data.size {
		f.data.size = off + n
	}
	if buf.Phantom() {
		return
	}
	src := buf.Bytes()
	pos := int64(0)
	for pos < n {
		blk := (off + pos) / storeBlock
		blkOff := (off + pos) % storeBlock
		chunk := int64(storeBlock) - blkOff
		if chunk > n-pos {
			chunk = n - pos
		}
		b := f.data.blocks[blk]
		if b == nil {
			b = make([]byte, storeBlock)
			f.data.blocks[blk] = b
		}
		copy(b[blkOff:blkOff+chunk], src[pos:pos+chunk])
		pos += chunk
	}
}

// loadBytes fills a real payload from the sparse block store. Phantom
// payloads skip data movement.
func (f *File) loadBytes(off int64, dst buffer.Buf) {
	if dst.Phantom() {
		return
	}
	out := dst.Bytes()
	n := dst.Len()
	pos := int64(0)
	for pos < n {
		blk := (off + pos) / storeBlock
		blkOff := (off + pos) % storeBlock
		chunk := int64(storeBlock) - blkOff
		if chunk > n-pos {
			chunk = n - pos
		}
		if b := f.data.blocks[blk]; b != nil {
			copy(out[pos:pos+chunk], b[blkOff:blkOff+chunk])
		} else {
			clear(out[pos : pos+chunk])
		}
		pos += chunk
	}
}
