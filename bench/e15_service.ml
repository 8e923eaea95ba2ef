(* E15: the crash-churn service soak (PR 9; EXPERIMENTS.md E15).

   Drives fleets of hosted Runiversal/Rlog instances -- effect-fiber
   client sessions, bounded admission, retry/timeout/backoff -- under
   every adversary x persistency-policy combination, with the online
   durability checkers live, and writes the machine-readable results to
   BENCH_service.json.

   Everything in the artifact is measured in simulated ticks/steps, so
   the file is seed-deterministic: identical on every machine and every
   domain count (the flagship row is run under 1 and 2 domains and the
   commit digests are compared to prove it).  Wall-clock appears on
   stdout only.

   Gates (exit 1):
   - the flagship storm x lossy soak must deliver >= 500 crash/recover
     events with zero checker violations and zero lost acknowledged ops;
   - the negative control (barrier-free universal instance under lossy
     churn) must be caught by the online checkers;
   - the flagship recovery-time p99 must not exceed the floor recorded
     in the committed BENCH_service.json (deterministic, so enforceable
     on any machine; RCONS_BENCH_NO_FLOOR=1 skips, for local
     experimentation with different configs).  A committed file that
     does not parse is exit 2, before the soak runs. *)

open Rcons.Runtime
module Service = Rcons.Service
module Instance = Service.Instance
module Metrics = Service.Metrics
module Soak = Service.Soak

let cert2 = lazy (Option.get (Rcons.Check.Recording.witness Rcons.Spec.Sticky_bit.t 2))

(* One fleet: [n] instances, every 4th a replicated log, the rest
   universal counters.  All per-instance randomness derives from
   [seed + id], so a row is a pure function of (seed, adversary,
   policy, n). *)
let fleet ~seed ~n ~adversary ~persist ~annotated =
  List.init n (fun id ->
      let base = Soak.default ~id ~seed in
      let base = { base with Instance.adversary; persist; annotated } in
      if id mod 4 = 3 then
        {
          base with
          Instance.kind = Instance.Log;
          cert = Some (Lazy.force cert2);
          sessions = 10;
          ops_per_session = 3;
          open_ops = 4;
          open_rate = 0.2;
        }
      else base)

type row = {
  w_adv : string;
  w_policy : string;
  w_instances : int;
  w_summary : Soak.summary;
  w_violation : string option;
}

let soak_cfgs ~name ~policy_name cfgs =
  let summary, violation =
    match Soak.run cfgs with
    | o -> (o.summary, None)
    | exception Instance.Violation v ->
        (Soak.summarize [], Some (Printf.sprintf "instance %d tick %d: %s" v.instance v.tick v.msg))
  in
  {
    w_adv = name;
    w_policy = policy_name;
    w_instances = List.length cfgs;
    w_summary = summary;
    w_violation = violation;
  }

let soak_row ~name ~policy_name ~seed ~n ~adversary ~persist =
  soak_cfgs ~name ~policy_name (fleet ~seed ~n ~adversary ~persist ~annotated:true)

let adversaries ~seed:_ =
  [
    ("uniform", Adversary.Uniform { crash_prob = 0.04; max_crashes = 10 });
    ("storm", Adversary.Storm { crash_prob = 0.04; burst = 2; max_crashes = 12 });
    ("targeted", Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.06; max_crashes = 10 });
    ("simultaneous", Adversary.Simultaneous { crash_at = [ 40; 160; 640; 2560 ] });
  ]

let policies = [ ("eager", Persist.Eager); ("lossy", Persist.Lossy); ("torn", Persist.Torn) ]

let pct h p = Metrics.percentile h p

let print_row r =
  let s = r.w_summary in
  match r.w_violation with
  | Some m -> Util.row "  %-13s %-6s VIOLATION: %s@." r.w_adv r.w_policy m
  | None ->
      Util.row
        "  %-13s %-6s acked %4d/%-4d shed %3d retries %4d crashes %3d recov %3d lat p50/p99 \
         %3d/%4d rec p99 %4d gave-up %2d@."
        r.w_adv r.w_policy s.Soak.s_acked s.Soak.s_submitted s.Soak.s_shed s.Soak.s_retries
        s.Soak.s_crashes_delivered s.Soak.s_recoveries (pct s.Soak.s_latency 0.50)
        (pct s.Soak.s_latency 0.99) (pct s.Soak.s_recovery 0.99) s.Soak.s_gave_up

(* --- artifact --- *)

let hist_json h =
  Util.Json.(List (List.map (fun (v, c) -> List [ Int v; Int c ]) (Metrics.sparse h)))

let summary_json (s : Soak.summary) =
  let open Util.Json in
  let pcts h ps extra = Obj (Util.ints (List.map (fun (k, p) -> (k, pct h p)) ps) @ extra) in
  let p99 = [ ("p50", 0.50); ("p99", 0.99) ] in
  let p999 = p99 @ [ ("p999", 0.999) ] in
  Obj
    (Util.ints
       [ ("instances", s.s_instances); ("ticks", s.s_ticks); ("sim_steps", s.s_sim_steps);
         ("submitted", s.s_submitted); ("acked", s.s_acked); ("completed", s.s_completed);
         ("completed_unacked", s.s_completed_unacked); ("gave_up", s.s_gave_up);
         ("retries", s.s_retries); ("timeouts", s.s_timeouts); ("overloads", s.s_overloads);
         ("shed", s.s_shed); ("admitted", s.s_admitted) ]
    @ [ ( "shed_rate",
          Util.fixed 4
            (Util.ratio (float_of_int s.s_shed) (float_of_int (s.s_admitted + s.s_shed))) ) ]
    @ Util.ints
        [ ("crashes_delivered", s.s_crashes_delivered);
          ("crashes_requested", s.s_crashes_requested); ("recoveries", s.s_recoveries);
          ("checks_run", s.s_checks_run); ("generations", s.s_generations); ("stuck", s.s_stuck) ]
    @ [ ( "throughput_acked_per_ktick",
          Util.fixed 3 (Util.ratio (1000.0 *. float_of_int s.s_acked) (float_of_int s.s_ticks)) );
        ("latency", pcts s.s_latency p999 [ ("mean", Util.fixed 2 (Metrics.mean s.s_latency)) ]);
        ("recovery", pcts s.s_recovery p999 [ ("hist", hist_json s.s_recovery) ]);
        ("replay_slots", pcts s.s_replay p99 [ ("hist", hist_json s.s_replay) ]);
        ("commit_digest", String s.s_commit_digest) ])

let write_json ~out rows ~flagship ~flagship_floor ~digest_1dom ~digest_2dom ~negative_caught =
  let open Util.Json in
  let row r =
    Obj
      [ ("adversary", String r.w_adv); ("policy", String r.w_policy);
        ("instances", Int r.w_instances);
        ("violation", Option.fold ~none:Null ~some:(fun m -> String m) r.w_violation);
        ("summary", summary_json r.w_summary) ]
  in
  Util.write_json ~out
    (Obj
       [ ("seed_offset", Int !Util.seed_offset); ("sweep", List (List.map row rows));
         ( "flagship",
           Obj
             [ ("adversary", String "storm"); ("policy", String "lossy");
               ("commit_digest_1dom", String digest_1dom);
               ("commit_digest_2dom", String digest_2dom);
               ("recovery_p99_floor", flagship_floor); ("summary", summary_json flagship) ] );
         ( "negative_control",
           Obj [ ("kind", String "universal bare lossy storm"); ("caught", Bool negative_caught) ] )
       ]);
  Util.row "@.wrote %s (all figures in simulated ticks; seed-deterministic)@." out

(* --- the flagship soak: storm x lossy, >= 500 crash/recover events --- *)

let flagship_fleet ~seed =
  fleet ~seed ~n:16
    ~adversary:(Adversary.Storm { crash_prob = 0.08; burst = 3; max_crashes = 40 })
    ~persist:Persist.Lossy ~annotated:true

let run ?(out = "BENCH_service.json") () =
  let recorded_floor =
    Option.bind (Util.committed ~file:out)
      (Util.number ~file:out [ "flagship"; "recovery_p99_floor" ])
  in
  Util.section "E15: crash-churn service soak (sessions, backoff, online checking)";
  let seed = Util.seed 1500 in
  let fail = ref false in

  Util.row "@.[adversary x persistency sweep; 8 instances each, annotated]@.";
  let rows =
    List.concat_map
      (fun (aname, adv) ->
        List.map
          (fun (pname, pol) ->
            let r =
              soak_row ~name:aname ~policy_name:pname ~seed:(seed + 17) ~n:8 ~adversary:adv
                ~persist:pol
            in
            print_row r;
            if r.w_violation <> None then begin
              Util.row "  ^ unexpected violation in an annotated soak@.";
              fail := true
            end;
            r)
          policies)
      (adversaries ~seed)
  in

  (* overload: 48 sessions hammering a 6-slot admission queue -- load
     shedding must engage (explicit Overloaded answers, no deadlock, no
     silent drops: every session still terminates) *)
  Util.row "@.[overload: 48 sessions x 6-slot queue, storm x lossy]@.";
  let overload =
    soak_cfgs ~name:"overload" ~policy_name:"lossy"
      (List.init 8 (fun id ->
           {
             (Soak.default ~id ~seed:(seed + 29)) with
             Instance.adversary =
               Adversary.Storm { crash_prob = 0.04; burst = 2; max_crashes = 12 };
             persist = Persist.Lossy;
             sessions = 48;
             queue_cap = 6;
           }))
  in
  print_row overload;
  if overload.w_violation <> None then fail := true;
  if overload.w_summary.Soak.s_shed = 0 || overload.w_summary.Soak.s_overloads = 0 then begin
    Util.row "  OVERLOAD FAILURE: admission control never shed@.";
    fail := true
  end;
  if overload.w_summary.Soak.s_stuck > 0 then begin
    Util.row "  OVERLOAD FAILURE: %d instances stuck@." overload.w_summary.Soak.s_stuck;
    fail := true
  end;
  let rows = rows @ [ overload ] in

  Util.row "@.[flagship: storm x lossy, 16 instances, >= 500 crash/recover events]@.";
  let (o1, dt1) = Util.time_it (fun () -> Soak.run ~domains:1 (flagship_fleet ~seed)) in
  let (o2, dt2) = Util.time_it (fun () -> Soak.run ~domains:2 (flagship_fleet ~seed)) in
  let s = o1.Soak.summary in
  Util.row
    "  crashes %d/%d recoveries %d acked %d/%d gave-up %d shed %d retries %d checks %d@."
    s.Soak.s_crashes_delivered s.Soak.s_crashes_requested s.Soak.s_recoveries s.Soak.s_acked
    s.Soak.s_submitted s.Soak.s_gave_up s.Soak.s_shed s.Soak.s_retries s.Soak.s_checks_run;
  Util.row "  latency p50/p99/p999 %d/%d/%d  recovery p50/p99 %d/%d  (%.2fs + %.2fs wall)@."
    (pct s.Soak.s_latency 0.50) (pct s.Soak.s_latency 0.99) (pct s.Soak.s_latency 0.999)
    (pct s.Soak.s_recovery 0.50) (pct s.Soak.s_recovery 0.99) dt1 dt2;
  if s.Soak.s_crashes_delivered < 500 then begin
    Util.row "  FLAGSHIP FAILURE: fewer than 500 crashes delivered@.";
    fail := true
  end;
  if s.Soak.s_stuck > 0 then begin
    Util.row "  FLAGSHIP FAILURE: %d instances stuck@." s.Soak.s_stuck;
    fail := true
  end;
  let d1 = s.Soak.s_commit_digest and d2 = o2.Soak.summary.Soak.s_commit_digest in
  if d1 <> d2 then begin
    Util.row "  DETERMINISM FAILURE: 1-domain and 2-domain digests differ@.";
    fail := true
  end
  else Util.row "  commit digest %s (identical under 1 and 2 domains)@." d1;

  (* negative control: drop the persist barriers, keep the lossy cache
     and the storm -- the online checkers must catch it *)
  let negative_caught =
    let cfg =
      {
        (Soak.default ~id:0 ~seed:(seed + 3)) with
        Instance.annotated = false;
        persist = Persist.Lossy;
        adversary = Adversary.Storm { crash_prob = 0.08; burst = 2; max_crashes = 30 };
      }
    in
    match Instance.run cfg with
    | _ ->
        Util.row "@.NEGATIVE-CONTROL FAILURE: barrier-free lossy soak passed the checkers@.";
        false
    | exception Instance.Violation v ->
        Util.row "@.[negative control] caught at tick %d: %s@." v.tick v.msg;
        true
    | exception e ->
        (* any other escape is a distinct failure, not a catch: classify
           it and keep going so the artifact still gets written *)
        Util.row
          "@.NEGATIVE-CONTROL FAILURE: barrier-free lossy soak died with %s instead of a \
           checker violation@."
          (Printexc.to_string e);
        false
  in
  if not negative_caught then fail := true;

  (* recovery-p99 floor: deterministic, so enforce exactly against the
     committed artifact and carry the committed value forward *)
  let measured = pct s.Soak.s_recovery 0.99 in
  let floor =
    match recorded_floor with
    | Some f ->
        if
          Sys.getenv_opt "RCONS_BENCH_NO_FLOOR" = None
          && float_of_int measured > Util.Json.to_float f
        then begin
          Util.row "@.RECOVERY FLOOR FAILURE: p99 %d > committed floor %s@." measured
            (Util.Json.to_string f);
          fail := true
        end;
        f
    | None ->
        Util.row "@.no committed floor found; recording recovery p99 %d as the floor@."
          measured;
        Util.Json.Int measured
  in

  write_json ~out rows ~flagship:s ~flagship_floor:floor ~digest_1dom:d1 ~digest_2dom:d2
    ~negative_caught;
  if !fail then exit 1
