package memcontention

import (
	"context"
	"fmt"

	"memcontention/internal/engine"
	"memcontention/internal/faults"
	"memcontention/internal/hwloc"
	"memcontention/internal/kernels"
	"memcontention/internal/memsys"
	"memcontention/internal/mpi"
	"memcontention/internal/obs"
	"memcontention/internal/simnet"
	"memcontention/internal/units"
)

// Cluster-facing re-exports.
type (
	// RankCtx is the per-rank handle of the simulated MPI.
	RankCtx = mpi.Ctx
	// MPIStatus describes a completed receive.
	MPIStatus = mpi.Status
	// MPIRequest is a non-blocking operation handle.
	MPIRequest = mpi.Request
	// Machine is one simulated cluster node.
	Machine = simnet.Machine
	// Buffer is a NUMA-bound memory region.
	Buffer = hwloc.Buffer
	// Assignment places a kernel on cores and a NUMA node.
	Assignment = kernels.Assignment
	// ByteSize is an amount of data.
	ByteSize = units.ByteSize
	// Bandwidth is a data rate in GB/s.
	Bandwidth = units.Bandwidth
	// CPUSet is a set of cores.
	CPUSet = hwloc.CPUSet
	// FaultPlan is a declarative, seeded fault scenario for a cluster
	// (see docs/resilience.md for the JSON schema).
	FaultPlan = faults.Plan
	// FaultEvent is one timed fault of a FaultPlan.
	FaultEvent = faults.Event
	// Resilience configures MPI timeouts and retry/backoff.
	Resilience = mpi.Resilience
	// MPIOpError is a structured MPI failure (rank, operation,
	// simulated time, cause); extract it with errors.As.
	MPIOpError = mpi.OpError
	// DeadlockError reports a deadlocked simulation with each stuck
	// process's wait reason and time; extract it with errors.As.
	DeadlockError = engine.DeadlockError
	// BudgetError reports a watchdog trip (simulated-time or
	// event-count budget exceeded); extract it with errors.As.
	BudgetError = engine.BudgetError
	// CanceledError reports a run stopped cleanly by external
	// cancellation (WithContext); it unwraps to the context cause, so
	// errors.Is(err, context.Canceled) identifies a graceful shutdown.
	CanceledError = engine.CanceledError
	// WaitState is one blocked process's diagnosis.
	WaitState = engine.WaitState
	// NodeDownError reports an operation that touched a crashed machine;
	// extract it with errors.As.
	NodeDownError = simnet.DownError
)

// Sentinel causes carried by MPIOpError; test with errors.Is.
var (
	// ErrMPITimeout marks an operation that exceeded Resilience.OpTimeout.
	ErrMPITimeout = mpi.ErrTimeout
	// ErrMessageDropped marks a message lost by fault injection after all
	// retries were spent.
	ErrMessageDropped = simnet.ErrMessageDropped
)

// LoadFaultPlan reads and validates a fault plan file (JSON).
func LoadFaultPlan(path string) (*FaultPlan, error) { return faults.Load(path) }

// ParseFaultPlan decodes and validates a fault plan from JSON bytes.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return faults.Parse(data) }

// ParseByteSize parses sizes such as "64MiB" or "1GiB".
func ParseByteSize(s string) (ByteSize, error) { return units.ParseByteSize(s) }

// ParseBandwidth parses rates such as "12.5 GB/s".
func ParseBandwidth(s string) (Bandwidth, error) { return units.ParseBandwidth(s) }

// Size constants re-exported for example code.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
)

// MPI wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Cluster is a simulated set of identical machines linked by a fabric,
// ready to run MPI programs under the deterministic simulation engine.
type Cluster struct {
	sim      *engine.Sim
	fabric   *simnet.Fabric
	machines []*simnet.Machine
	reg      *obs.Registry
	observer engine.FlowObserver
	// spans is the observer when it also records causal spans.
	spans obs.SpanRecorder
	plan  *faults.Plan
	res   mpi.Resilience
	ran   bool
}

// NewCluster builds n identical machines of the named built-in platform.
// They share the platform's memory system (memsys.Builtin), so NewCluster
// builds neither a platform nor a memory system.
func NewCluster(platform string, n int) (*Cluster, error) {
	plat, err := PlatformByName(platform)
	if err != nil {
		return nil, err
	}
	sys, _ := memsys.Builtin(plat)
	return newCluster(sys, n)
}

// NewCustomCluster builds a cluster from an explicit platform and
// hardware profile.
func NewCustomCluster(plat *Platform, prof *HardwareProfile, n int) (*Cluster, error) {
	sys, err := memsys.New(plat, prof)
	if err != nil {
		return nil, err
	}
	return newCluster(sys, n)
}

// newCluster builds n machines of the memory system sys.
func newCluster(sys *memsys.System, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("memcontention: cluster needs at least one machine, got %d", n)
	}
	sim := engine.NewSim()
	plat := sys.Platform()
	wire := simnet.WireRateFor(plat.NIC.Tech, plat.NIC.PCIeGen)
	fabric, err := simnet.NewFabric(sim, wire, 1.5e-6)
	if err != nil {
		return nil, err
	}
	c := &Cluster{sim: sim, fabric: fabric, machines: make([]*simnet.Machine, 0, n)}
	for i := 0; i < n; i++ {
		m := simnet.NewMachine(sim, i, sys)
		if err := fabric.Attach(m); err != nil {
			return nil, err
		}
		c.machines = append(c.machines, m)
	}
	return c, nil
}

// WithRegistry attaches a telemetry registry to the cluster: the
// simulation engine and every machine's flow manager publish their
// instruments into it, and Run records cluster-level metrics. A nil
// registry (the default) keeps all instrumentation disabled at zero
// cost. It returns the cluster for chaining.
func (c *Cluster) WithRegistry(r *obs.Registry) *Cluster {
	c.reg = r
	c.sim.SetRegistry(r)
	for _, m := range c.machines {
		m.Flows.SetRegistry(r)
	}
	return c
}

// Registry returns the attached telemetry registry (nil when none).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// WithObserver installs a flow observer (for example a trace.Recorder)
// on every machine's flow manager. An observer that also implements
// obs.SpanRecorder — trace.Recorder does — becomes the causal span
// recorder of every simulation layer too (memory flows, fabric transfers
// and, during Run, MPI operations and ranks), producing one timeline that
// interleaves flow events with the span forest. Without one (the
// default) every layer's span hook stays nil, preserving the
// allocation-free hot path. It returns the cluster for chaining.
func (c *Cluster) WithObserver(o engine.FlowObserver) *Cluster {
	c.observer = o
	c.spans, _ = o.(obs.SpanRecorder)
	for _, m := range c.machines {
		m.Flows.SetObserver(o)
	}
	c.fabric.SetSpanRecorder(c.spans)
	return c
}

// WithFaults arms a fault plan on the cluster: the plan's timed events
// are injected during Run, deterministically (same seed + same plan =
// bit-identical runs). A nil plan — the default — installs no hooks and
// costs nothing on the hot path. Fault metrics land in the registry
// attached with WithRegistry, and fault events in the trace recorder
// attached with WithObserver. It returns the cluster for chaining.
func (c *Cluster) WithFaults(plan *FaultPlan) *Cluster {
	c.plan = plan
	return c
}

// WithResilience installs the MPI resilience policy (per-operation
// timeouts, drop retry with exponential backoff). The zero value — the
// default — keeps the historical semantics: no timeouts, no retries.
// It returns the cluster for chaining.
func (c *Cluster) WithResilience(r Resilience) *Cluster {
	c.res = r
	return c
}

// WithContext installs an external cancellation source: Run returns a
// *CanceledError as soon as ctx is done, checked between simulation
// events so state stays consistent and partial telemetry can still be
// flushed. A nil or background context — the default — keeps the event
// loop entirely check-free. It returns the cluster for chaining.
func (c *Cluster) WithContext(ctx context.Context) *Cluster {
	c.sim.SetContext(ctx)
	return c
}

// WithWatchdog arms the cluster watchdog: Run fails with a *BudgetError
// carrying a per-rank wait-state diagnosis as soon as the job exceeds
// maxSimSeconds of simulated time or maxEvents scheduler events (zero
// disables either budget). It returns the cluster for chaining.
func (c *Cluster) WithWatchdog(maxSimSeconds float64, maxEvents int64) *Cluster {
	c.sim.SetBudget(maxSimSeconds, maxEvents)
	return c
}

// Machines returns the cluster's nodes.
func (c *Cluster) Machines() []*simnet.Machine { return c.machines }

// Platform returns the machines' platform description. For a cluster of
// NewCluster it is the shared built-in platform (see PlatformByName) and
// must not be modified.
func (c *Cluster) Platform() *Platform { return c.machines[0].Sys.Platform() }

// Run executes an MPI program with ranksPerMachine ranks on each machine
// and blocks until every rank returns. It returns the total simulated
// time and any simulation error (deadlock, panic in a rank).
func (c *Cluster) Run(ranksPerMachine int, main func(*RankCtx)) (simSeconds float64, err error) {
	if c.ran {
		return 0, fmt.Errorf("memcontention: a Cluster runs one job; create a new cluster for the next run")
	}
	c.ran = true
	world, err := mpi.NewWorld(c.sim, c.fabric, c.machines, ranksPerMachine)
	if err != nil {
		return 0, err
	}
	if err := world.SetResilience(c.res); err != nil {
		return 0, err
	}
	world.SetSpanRecorder(c.spans)
	if c.plan != nil {
		inj, err := faults.New(c.plan)
		if err != nil {
			return 0, err
		}
		marker, _ := c.observer.(faults.Marker)
		if err := inj.Arm(c.sim, c.fabric, c.machines, c.reg, marker); err != nil {
			return 0, err
		}
	}
	world.Launch(main)
	runErr := c.sim.Run()
	if c.reg != nil {
		c.reg.Counter("memcontention_cluster_runs_total", "MPI jobs executed on simulated clusters.", nil).Inc()
		c.reg.Gauge("memcontention_cluster_ranks", "MPI ranks of the last job.", nil).Set(float64(ranksPerMachine * len(c.machines)))
		c.reg.Gauge("memcontention_cluster_sim_seconds", "Simulated duration of the last job.", nil).Set(c.sim.Now())
	}
	return c.sim.Now(), runErr
}
