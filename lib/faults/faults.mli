(** Control-plane fault injection: seeded message loss and link flapping.

    The simulator's signalling — CDP flooding copies, hop-by-hop failure
    reports, backup-activation signals, connection setup packets and their
    acknowledgements — historically travelled over a perfect control
    plane.  This module is the single switchboard that makes those
    messages lossy: a {e plan} carries one loss probability per message
    class, and the consuming layers ({!Dr_flood.Bounded_flood},
    {!Drtp.Recovery}, {!Dr_proto.Protocol_sim}) ask {!deliver} before
    acting on each message.

    {b Determinism.}  Every class draws from its own {!Dr_rng.Splitmix64}
    stream (split off the plan's seed in a fixed order), so the drop
    sequence of one class never perturbs another, and a run is exactly
    reproducible from [(seed, spec)].  Plans hold mutable generator state:
    use one plan per simulation task, never share one across
    {!Dr_parallel.Pool} workers — each chaos sweep cell creates its own
    plan from its grid position, which is what makes [--jobs] counts
    byte-equivalent.

    {b Zero-probability transparency.}  [deliver] at probability 0 returns
    [true] without touching the generator, so a plan whose spec is
    {!zero_spec} is observationally identical to no plan at all — the
    equivalence the chaos CI gate enforces. *)

(** One class of control-plane message. *)
type cls =
  | Cdp  (** bounded-flooding connection-discovery packet copy *)
  | Report  (** hop-by-hop failure report towards the source *)
  | Activation  (** backup-activation signal along the backup route *)
  | Setup  (** connection setup packet (distributed protocol) *)
  | Ack  (** setup acknowledgement back to the source *)
  | Lsa  (** inter-shard link-state advertisement ({!Dr_shard}) *)

val cls_name : cls -> string
(** Stable lowercase tag: ["cdp"], ["report"], ["activation"], ["setup"],
    ["ack"], ["lsa"] — the [cls] field of message-dropped / retransmit
    journal events. *)

val all_classes : cls list

(** Per-class loss probabilities, each in [0, 1]. *)
type spec = {
  p_cdp : float;
  p_report : float;
  p_activation : float;
  p_setup : float;
  p_ack : float;
  p_lsa : float;
}

val zero_spec : spec
(** All classes lossless. *)

val uniform_spec : float -> spec
(** The same loss probability for every class (the chaos sweep's knob). *)

val spec_loss : spec -> cls -> float

type t

val create : ?seed:int -> spec -> t
(** Fresh plan.  Raises [Invalid_argument] if any probability lies outside
    [0, 1].  [seed] defaults to 0. *)

val spec : t -> spec
val loss : t -> cls -> float

val active : t -> bool
(** True iff some class has a positive loss probability.  Consumers use
    this to skip the fault layer entirely on lossless plans. *)

val deliver : t -> cls -> bool
(** Draw one transmission: [true] = the message arrives.  Probability-0
    classes return [true] without consuming randomness; probability-1
    classes return [false] without consuming randomness. *)

val dropped : t -> int
(** Total messages dropped by this plan so far. *)

val dropped_of : t -> cls -> int

(** {1 Link repair / flap schedules}

    The repair-churn half of the chaos grid, and the E6 availability
    timeline ({!Dr_exp.Availability_exp} calls {!flap_schedule}): a
    seeded timeline of edge failures and their repairs, never failing an
    edge that is already down.  Failure inter-arrivals and repair
    durations are exponential ([mtbf], [mttr]). *)

(** {1 Crash schedules}

    Control-plane crash points for the durability layer ({!Dr_persist}):
    ordinals of ops (or batches) after which the manager — or one shard in
    {!Dr_shard} — is killed and must recover from checkpoint + WAL
    replay.  Indices rather than sim times, so a schedule composes with
    any workload and a crash lands exactly on an op boundary. *)

val crash_schedule :
  seed:int -> mean_gap:float -> ?count:int -> horizon:int -> unit -> int list
(** Strictly increasing crash indices in [[1], [horizon]], at most [count]
    of them (default unbounded), with geometric-ish gaps of mean
    [mean_gap] (an exponential draw rounded up — the discrete analogue of
    {!flap_schedule}'s inter-arrival process).  Deterministic in every
    argument.  Raises [Invalid_argument] if [mean_gap < 1] or [horizon]
    is negative. *)

type flap = {
  fail_at : float;
  edge : int;
  repair_at : float;  (** strictly after [fail_at] *)
}

val flap_schedule :
  seed:int ->
  edge_count:int ->
  mtbf:float ->
  mttr:float ->
  ?after:float ->
  horizon:float ->
  unit ->
  flap list
(** Failure events in increasing [fail_at] order, all within
    [[after], [horizon]) (default [after = 0]).  Deterministic in every
    argument.  Raises [Invalid_argument] on non-positive [mtbf] or
    [mttr]. *)
