(** The churn loop shared by the chaos ({!Robustness_exp}) and SRLG
    ({!Resilience_exp}) cells: replay a workload through a manager while a
    timeline of failures and repairs runs, recover every failure with
    DRTP, and tally the outcome. *)

(** What one timeline entry takes down — the three cases of the DRTP
    recovery driver. *)
type failure =
  | Edge of int  (** one link, {!Drtp.Recovery.fail_edge_drtp} *)
  | Group of int  (** one SRLG, {!Drtp.Recovery.fail_group_drtp} *)
  | Edges of int list
      (** a bare edge set (a regional burst),
          {!Drtp.Recovery.fail_edges_drtp} *)

type tally = {
  failures : int;  (** timeline entries replayed *)
  affected : int;  (** connections whose primary crossed a failed edge *)
  recovered : int;  (** of those, switched or rerouted *)
  lost : int;  (** of those, dropped *)
  success_ratio : float;  (** recovered / affected; 1.0 when unaffected *)
  latency_mean_ms : float;  (** mean latency of recovered connections *)
  retransmits : int;  (** recovery control messages retransmitted *)
  messages_dropped : int;  (** recovery control messages lost *)
}

val run :
  Drtp.Manager.t ->
  name:string ->
  scheme:Drtp.Routing.scheme ->
  backup_count:int ->
  ?faults:Dr_faults.Faults.t ->
  queue:bool ->
  horizon:float ->
  Dr_sim.Scenario.t ->
  (float * float * failure) list ->
  tally
(** [run manager ~name ~scheme ~backup_count ~queue ~horizon scenario
    timeline] schedules the workload items at or before [horizon], then
    each [(fail_at, repair_at, failure)] entry's failure and repair in
    timeline order, and runs the event engine.  A failure is recovered
    under [scheme] with [backup_count] backups and the [faults] loss plan;
    with [queue], connections it leaves unprotected join the manager's
    reprotection queue, which drains after every repair.  At the end the
    state's invariants are checked (raising [Invalid_argument "<name>:
    invariant violated: ..."]) and the queue is flushed. *)
