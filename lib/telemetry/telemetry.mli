(** Telemetry: named metrics.

    The simulator's observability layer.  Instrumented modules create
    metrics once at module-initialisation time and update them from their
    hot paths; all updates are guarded by a single global switch so that a
    disabled metric costs one load and one conditional branch — cheap
    enough to leave the instrumentation in the hot loops permanently (the
    bench harness enforces a <= 2% overhead budget for the disabled case).

    Three metric kinds:
    - {b counters} — monotone event counts (CDPs sent, routes rejected);
    - {b gauges} — last-written level plus the high-water mark (event-queue
      depth);
    - {b timers} — duration accumulators backed by {!Dr_stats.Summary}
      (and optionally a {!Dr_stats.Histogram}).

    {!Timer.time} takes its timestamps from the installed clock
    ({!set_clock}): [Unix.gettimeofday] by default, or the simulation
    clock when a driver installs it.  Causal spans over a run live in the
    flight-recorder journal ({!Dr_obs.Journal.Causal}).

    {b Domain-safety.}  Metric updates and metric registration are
    serialised by an internal lock, so instrumented code may run in
    {!Dr_parallel} worker domains: counts are exact.  The lock is only
    taken behind the enabled check — the disabled fast path is still a
    single load and branch.  {!set_enabled} and {!set_clock} remain
    coordinator-only operations: call them from the main domain while no
    worker is running. *)

val on : bool ref
(** The master switch, exposed as a ref so call sites can guard compound
    instrumentation with a single [if !Telemetry.on then ...].  Treat as
    read-only; flip it with {!set_enabled}. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

val set_clock : (unit -> float) -> unit
(** Install the timestamp source used by {!Timer.time}.  The
    default is [Unix.gettimeofday]; a discrete-event driver may install
    its simulated clock instead. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive; the enabled flag
    is untouched).  Meant for tests and multi-run drivers. *)

module Counter : sig
  type t

  val make : string -> t
  (** Create (or look up — names are unique) the counter called [name]. *)

  val incr : t -> unit
  (** No-op while telemetry is disabled. *)

  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float

  val max_seen : t -> float
  (** High-water mark over all [set] calls since the last {!reset};
      [neg_infinity] when never set. *)
end

module Timer : sig
  type t

  val make : ?hist:float * float * int -> string -> t
  (** [make ?hist name] creates the timer called [name].  With
      [~hist:(lo, hi, bins)] every recorded duration also feeds a
      {!Dr_stats.Histogram} over [lo, hi) seconds, rendered by
      {!pp_summary}. *)

  val record : t -> float -> unit
  (** Record one duration, in seconds.  No-op while disabled. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk and record its wall-clock duration (also on
      exception).  While disabled this is a tail call to the thunk. *)

  val count : t -> int
  val total_s : t -> float
  val summary : t -> Dr_stats.Summary.t
end

val observe_gc : unit -> unit
(** Sample [Gc.quick_stat] into the [gc.*] gauges: allocation odometers
    ([gc.minor_words], [gc.major_words], [gc.promoted_words]) and the
    memory high-water mark ([gc.top_heap_words], with [gc.heap_words] and
    [gc.major_collections] alongside).  The gauges' high-water tracking
    makes repeated samples cumulative-max.  No-op while disabled; cheap
    enough to call once per run or sample point. *)

val pp_summary : Format.formatter -> unit -> unit
(** The end-of-run summary: one table per metric kind, sorted by name,
    plus the histograms of timers that carry one.  Metrics that were never
    touched are omitted. *)
