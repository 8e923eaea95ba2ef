(** The crash-churn soak harness: a fleet of {!Instance}s driven to
    completion, optionally fanned out across domains.

    Instances are fully independent simulations (private RNGs, private
    persistency caches, private adversaries), so the fleet runs on the
    shared work-stealing pool ({!Rcons_par.Pool.map}, one index per
    instance; [~domains:1] runs inline).  The pool merges in index
    order, so the merged {!summary} -- including the
    {!summary.s_commit_digest} over every instance's commit trace -- is
    identical for any [domains] count.  [test/test_service.ml] holds
    that equality across 1/2/4 domains.

    A checker {!Instance.Violation} raised by any instance aborts the
    soak: every instance still runs to completion (a domain cannot be
    interrupted mid-instance), then the violation from the
    lowest-numbered failing instance is re-raised, deterministically. *)

(** Fleet-wide aggregates.  Sums over instances unless noted; histograms
    are merged bucket-wise. *)
type summary = {
  s_instances : int;
  s_ticks : int;  (** max over instances *)
  s_sim_steps : int;
  s_submitted : int;
  s_acked : int;
  s_completed : int;
  s_completed_unacked : int;
  s_gave_up : int;
  s_retries : int;
  s_timeouts : int;
  s_overloads : int;
  s_shed : int;
  s_admitted : int;
  s_queue_high_water : int;  (** max over instances *)
  s_crashes_delivered : int;
  s_crashes_requested : int;
  s_recoveries : int;
  s_checks_run : int;
  s_generations : int;
  s_stuck : int;  (** instances that hit [max_ticks] *)
  s_latency : Metrics.hist;
  s_recovery : Metrics.hist;
  s_replay : Metrics.hist;
  s_commit_digest : string;
      (** hex digest over every instance's commit trace, in id order:
          the one value the determinism tests compare across domain
          counts and replays *)
}

type outcome = { reports : Instance.report list; summary : summary }

val default : id:int -> seed:int -> Instance.config
(** A small, valid universal-instance config (uniform churn, eager
    persistency, annotated, windowed checking) for call sites to
    override field-wise. *)

val summarize : Instance.report list -> summary

val run : ?domains:int -> Instance.config list -> outcome
(** Run every instance to completion and merge.  [domains] defaults to
    [1]; the result is independent of it.

    @raise Instance.Violation if any instance's online or final checks
    failed (lowest instance index wins when several fail).
    @raise Invalid_argument if [domains < 1] or any config is invalid
    (all configs are validated up front, before anything runs). *)
