(* The crash-churn service side of a workload: the mixed fleet of the
   CLI's [serve] command (every 4th instance an [Rlog], the rest
   [Runiversal] counters) under storm x lossy churn, seeded by the
   workload seed.

   Untraced runs time the loop [Soak.run ~domains:1] makes, against the
   host-speed reference ([Calib]).  A traced run calls [Instance.run]
   per instance to time each one, then decomposes the fleet's wall time
   into counts from the soak summary times per-call costs measured with
   Bechamel. *)

module Service = Rcons.Service
module Instance = Service.Instance
module Soak = Service.Soak
module Session = Service.Session
module Admission = Service.Admission
module Sim = Rcons.Runtime.Sim
module U = Rcons.Universal
module History = Rcons.History.History
module Lin = Rcons.History.Linearizability

type spec = { instances : int; sessions : int }

(* About 10x past saturation: most submissions are shed. *)
let overload = { instances = 64; sessions = 1000 }

(* Under saturation: every op is acknowledged, none is shed. *)
let nominal = { instances = 512; sessions = 16 }

(* The serve half of the explore workloads. *)
let companion = { instances = 64; sessions = 16 }
let smoke = { instances = 4; sessions = 16 }
let ops_per_session = 4
let queue_cap = 32

let params s =
  [
    ("instances", string_of_int s.instances);
    ("sessions", string_of_int s.sessions);
    ("ops_per_session", string_of_int ops_per_session);
    ("queue_cap", string_of_int queue_cap);
    ("adversary", "storm");
    ("persist", "lossy");
    ("log_every", "4");
    ("domains", "1");
  ]

type inputs = { spec : spec; seed : int; cfgs : Instance.config list }

(* Set-up: the adversary policy, the sticky-bit certificate the log
   instances need and the fleet's configs -- the same fleet as
   [rcons_cli serve --adversary storm --persist lossy]. *)
let setup spec ~seed =
  let adv =
    match
      Rcons.Runtime.Adversary.policy_of_string ~crash_prob:0.05 ~max_crashes:12 ~burst:2 "storm"
    with
    | Ok a -> a
    | Error e -> Util.fail "serve set-up: %s" e
  in
  let cert =
    match Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2 with
    | Some c -> c
    | None -> Util.fail "serve set-up: no sticky-bit recording certificate"
  in
  let cfgs =
    List.init spec.instances (fun id ->
        let base =
          {
            (Soak.default ~id ~seed) with
            Instance.adversary = adv;
            persist = Rcons.Runtime.Persist.Lossy;
            flush_cost = 1;
            annotated = true;
            sessions = spec.sessions;
            ops_per_session;
            queue_cap;
            max_ticks = 50_000;
          }
        in
        if id mod 4 = 3 then
          {
            base with
            Instance.kind = Instance.Log;
            cert = Some cert;
            sessions = max 1 (spec.sessions / 2);
            open_ops = 4;
            open_rate = 0.2;
          }
        else base)
  in
  List.iter Instance.validate cfgs;
  { spec; seed; cfgs }

let check_report (r : Instance.report) =
  if r.Instance.r_stuck then Util.fail "instance %d stuck at its tick budget" r.Instance.r_id;
  if r.Instance.r_acked + r.Instance.r_gave_up <> r.Instance.r_submitted then
    Util.fail "instance %d: acked %d + gave up %d <> submitted %d" r.Instance.r_id
      r.Instance.r_acked r.Instance.r_gave_up r.Instance.r_submitted

let guard f =
  try f ()
  with Instance.Violation v ->
    Util.fail "service violation: instance %d, tick %d: %s" v.instance v.tick v.msg

(* One checked soak through the public entry point. *)
let run inp =
  let o = guard (fun () -> Soak.run ~domains:1 inp.cfgs) in
  List.iter check_report o.Soak.reports;
  o.Soak.summary

(* The same soak with each instance timed: [Soak.run ~domains:1] runs
   the instances one after another on the calling domain, exactly this
   loop.  Returns the summary and the per-instance wall times. *)
let run_timed inp =
  let timed =
    guard (fun () ->
        List.map
          (fun cfg ->
            let r, dt = Util.time (fun () -> Instance.run cfg) in
            check_report r;
            (r, dt))
          inp.cfgs)
  in
  (Soak.summarize (List.map fst timed), timed)

(* --- untraced --- *)

(* One checked soak, the loop of [run_timed], timed against the
   host-speed reference, which takes a slice before an instance when
   one is due. *)
let timed inp =
  let cal = Calib.create () in
  let reports, wall =
    Util.time (fun () ->
        guard (fun () ->
            List.map
              (fun cfg ->
                Calib.tick cal;
                let r = Instance.run cfg in
                check_report r;
                r)
              inp.cfgs))
  in
  (Soak.summarize reports, Calib.correct [ cal ] ~domains:1 ~wall)

(* The repeats of one part.  Each must reproduce the first one's
   summary, commit digest included. *)
let measure ?first ~budget ~min_runs inp =
  let first_summary = ref None in
  let runs =
    Util.repeat ?first ~budget ~min_runs (fun () ->
        let s, run = timed inp in
        (match !first_summary with
        | None -> first_summary := Some s
        | Some s0 ->
            if s <> s0 then
              Util.fail "soak of seed %d is not deterministic (digest %s vs %s)" inp.seed
                s.Soak.s_commit_digest s0.Soak.s_commit_digest);
        run)
  in
  (Option.get !first_summary, runs)

(* The end-to-end metrics a seed determines: they move only when the
   service's behaviour does. *)
let behaviour (s : Soak.summary) =
  let open Util in
  [
    m "serve_acked_per_kticks" "acks/kticks"
      (1000. *. float_of_int s.Soak.s_acked /. float_of_int s.Soak.s_ticks);
    m "serve_latency_p50_ticks" "ticks" (hist_percentile s.Soak.s_latency 0.50);
    m "serve_latency_p99_ticks" "ticks" (hist_percentile s.Soak.s_latency 0.99);
    m "serve_recovery_p95_ticks" "ticks" (hist_percentile s.Soak.s_recovery 0.95);
    m "serve_ack_ratio" "ratio" (float_of_int s.Soak.s_acked /. float_of_int s.Soak.s_submitted);
  ]

(* --- per-call costs (Bechamel) --- *)

type costs = {
  step_ns : float;  (** one worker step of a Runiversal counter *)
  window_ns : float;  (** one Wing-Gong check of a [check_window]-op window *)
  resume_ns : float;  (** one session fiber resume ([answer] or [wake]) *)
  admit_ns : float;  (** [try_enqueue] that admits plus its [pop_up_to] *)
  shed_ns : float;  (** [try_enqueue] on a full queue *)
}

let workers = (Soak.default ~id:0 ~seed:0).Instance.workers
let window = (Soak.default ~id:0 ~seed:0).Instance.check_window
let script = U.Derived.[| Incr; Get; Incr; Incr; Get; Incr; Incr; Get |]

(* A counter system of the instance's shape: [workers] processes each
   running [script] through the recoverable universal construction. *)
let counter_system ?history () =
  let u = U.Runiversal.create ?history ~annotated:true ~n:workers U.Derived.counter in
  let runner = U.Script.create u ~n:workers ~max_ops:(Array.length script) in
  Sim.create ~n:workers (fun pid () -> U.Script.run runner pid script)

let step_some sim k =
  let steps = ref 0 and pid = ref 0 in
  while !steps < k && not (Sim.all_finished sim) do
    if not (Sim.finished sim !pid) then begin
      ignore (Sim.step_proc sim !pid);
      incr steps
    end;
    pid := (!pid + 1) mod workers
  done;
  !steps

let probe () =
  let total =
    let sim = counter_system () in
    let n = step_some sim max_int in
    Sim.abandon sim;
    n
  in
  let k1 = 2 and kk = min 40 (total - 1) in
  let steps k =
    Percall.ns (Printf.sprintf "serve-steps/%d" k) (fun () ->
        let sim = counter_system () in
        ignore (step_some sim k);
        Sim.abandon sim)
  in
  let step_ns = (steps kk -. steps k1) /. float_of_int (kk - k1) in
  (* a history window of [window] ops from a seeded interleaving *)
  let ops =
    let hist = History.create () in
    let sim = counter_system ~history:hist () in
    let rng = Random.State.make [| 2022 |] in
    while not (Sim.all_finished sim) do
      let p = Random.State.int rng workers in
      if not (Sim.finished sim p) then ignore (Sim.step_proc sim p)
    done;
    Sim.abandon sim;
    List.filteri (fun i _ -> i < window) (History.operations hist)
  in
  let spec = U.Derived.lin_spec U.Derived.counter in
  if List.length ops <> window || not (Lin.check spec ops) then
    Util.fail "serve probe: the %d-op counter window does not check" window;
  let window_ns = Percall.ns "lin.window" (fun () -> ignore (Lin.check spec ops)) in
  let s =
    Session.spawn (fun ctx ->
        while true do
          ignore (ctx.Session.call ~idx:0);
          ctx.Session.sleep 1
        done)
  in
  Session.start s;
  let cycle =
    Percall.ns "session.answer+wake" (fun () ->
        Session.answer s (Session.Done 0);
        Session.wake s)
  in
  Session.abort s;
  let q = Admission.create ~cap:queue_cap in
  let admit_ns =
    Percall.ns "admission.admit" (fun () ->
        ignore (Admission.try_enqueue q 1);
        ignore (Admission.pop_up_to q 1))
  in
  let full = Admission.create ~cap:queue_cap in
  for i = 1 to queue_cap do
    ignore (Admission.try_enqueue full i)
  done;
  let shed_ns = Percall.ns "admission.shed" (fun () -> ignore (Admission.try_enqueue full 0)) in
  { step_ns; window_ns; resume_ns = cycle /. 2.; admit_ns; shed_ns }

(* --- traced --- *)

type traced = {
  summary : Soak.summary;
  costs : costs;
  wall_traced : float;  (** best case, summed over instances *)
  instance_ms : float list;
  ticks : int;  (** simulated ticks summed over instances *)
}

let min_costs a b =
  {
    step_ns = Float.min a.step_ns b.step_ns;
    window_ns = Float.min a.window_ns b.window_ns;
    resume_ns = Float.min a.resume_ns b.resume_ns;
    admit_ns = Float.min a.admit_ns b.admit_ns;
    shed_ns = Float.min a.shed_ns b.shed_ns;
  }

(* As on the explore side, costs are the lesser of two probes; instance
   times are the faster of two timed runs. *)
let traced inp =
  let first = probe () in
  let s0 = run inp in
  let timed () =
    Gc.compact ();
    let s, t = run_timed inp in
    if s <> s0 then Util.fail "per-instance runs disagree with the soak of seed %d" inp.seed;
    t
  in
  let a = timed () in
  let b = timed () in
  let costs = min_costs first (probe ()) in
  let per_instance = List.map2 (fun (_, x) (_, y) -> Float.min x y) a b in
  {
    summary = s0;
    costs;
    wall_traced = Util.sum per_instance;
    instance_ms = List.map (fun dt -> dt *. 1e3) per_instance;
    ticks = List.fold_left (fun n ((r : Instance.report), _) -> n + r.Instance.r_ticks) 0 a;
  }

let resumes (s : Soak.summary) = 2 * (s.Soak.s_acked + s.Soak.s_timeouts + s.Soak.s_overloads)

let layers tr =
  let s = tr.summary and c = tr.costs in
  let t n ns = float_of_int n *. ns *. 1e-9 in
  [
    ("sim.step", t s.Soak.s_sim_steps c.step_ns);
    ("lin.check", t s.Soak.s_checks_run c.window_ns);
    ("session.resume", t (resumes s) c.resume_ns);
    ("admission", t s.Soak.s_admitted c.admit_ns +. t s.Soak.s_shed c.shed_ns);
  ]

let metrics ~main tr =
  let s = tr.summary and c = tr.costs in
  let open Util in
  let explained = sum (List.map snd (layers tr)) in
  (if main then [ m "sim.step_ns" "ns" c.step_ns ] else [])
  @ [
      m "soak.instance_wall_ms_p50" "ms" (quantile tr.instance_ms 0.5);
      m "soak.instance_wall_ms_p80" "ms" (quantile tr.instance_ms 0.8);
      m "soak.wall_s" "s" tr.wall_traced;
      m "soak.unexplained_s" "s" (tr.wall_traced -. explained);
      m "soak.explained_ratio" "ratio" (explained /. tr.wall_traced);
      m "instance.ticks" "count" (float_of_int tr.ticks);
      m "instance.tick_ns" "ns" (tr.wall_traced *. 1e9 /. float_of_int tr.ticks);
      m "instance.sim_steps" "count" (float_of_int s.Soak.s_sim_steps);
      m "admission.admitted" "count" (float_of_int s.Soak.s_admitted);
      m "admission.shed" "count" (float_of_int s.Soak.s_shed);
      m "admission.shed_ratio" "ratio"
        (float_of_int s.Soak.s_shed /. float_of_int (max 1 (s.Soak.s_admitted + s.Soak.s_shed)));
      m "session.retries" "count" (float_of_int s.Soak.s_retries);
      m "session.timeouts" "count" (float_of_int s.Soak.s_timeouts);
      m "session.overloads" "count" (float_of_int s.Soak.s_overloads);
      m "session.resumes" "count" (float_of_int (resumes s));
      m "session.resume_ns" "ns" c.resume_ns;
      m "lin.checks_run" "count" (float_of_int s.Soak.s_checks_run);
      m "lin.window_check_ns" "ns" c.window_ns;
      m "lin.check_s" "s" (float_of_int s.Soak.s_checks_run *. c.window_ns *. 1e-9);
      m "log.generations" "count" (float_of_int s.Soak.s_generations);
      m "log.replay_slots_p95" "slots" (hist_percentile s.Soak.s_replay 0.95);
    ]
