(* Seeded crash adversaries, schedule shrinking, and budgeted resumable
   exploration.

   Pinned here:
   - determinism: the same [(seed, policy)] pair yields the same recorded
     schedule on every run, on every domain count ([Pool.map] sweep) --
     the replayability contract of the whole adversary subsystem;
   - stream compatibility: [Drivers.random] / [Drivers.simultaneous] are
     thin wrappers over [Adversary] and consume the RNG identically, so
     every EXPERIMENTS.md table survives the delegation;
   - recorded schedules replay: applying the recorded choice list to a
     fresh system reproduces the run (steps, crashes, outputs);
   - shrinker soundness: a minimized schedule still violates, is
     1-minimal, and (qcheck) minimization never loses an
     adversary-found violation;
   - checkpoint/resume: a budget-interrupted exploration, resumed any
     number of times (through the JSON round-trip), reports final
     statistics bit-identical to the uninterrupted run, in raw and in
     dedup mode;
   - counterexample artifacts: JSON round-trip preserves replayability,
     and replaying against the wrong workload is refused. *)

open Rcons_runtime

let sticky_cert = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 2)
let sticky3_cert = lazy (Helpers.cert_of Rcons_spec.Sticky_bit.t 3)

let team_mk ?faithful cert () =
  let sys = Helpers.team_system ?faithful cert () in
  (sys.Helpers.sim, sys.Helpers.check)

(* A fresh 2-team system driven by [adv]; returns the outcome and the
   final total step count. *)
let drive ?record adv =
  let sys = Helpers.team_system (Lazy.force sticky_cert) () in
  let o = Adversary.run ?record adv sys.Helpers.sim in
  (o, Sim.total_steps sys.Helpers.sim)

let schedule_str sched = Format.asprintf "%a" Explore.pp_schedule sched

let policies =
  [
    ("uniform", Adversary.Uniform { crash_prob = 0.3; max_crashes = 5 });
    ("storm", Adversary.Storm { crash_prob = 0.3; burst = 2; max_crashes = 5 });
    ("targeted", Adversary.Targeted { victims = [ 0 ]; crash_prob = 0.4; max_crashes = 5 });
    ("simultaneous", Adversary.Simultaneous { crash_at = [ 3; 9 ] });
    ("quiescent", Adversary.Quiescent { period = 6; active = 3; crash_prob = 0.4; max_crashes = 5 });
  ]

(* --- same seed, same schedule --- *)

let test_seed_determinism () =
  List.iter
    (fun (name, pol) ->
      let run () = fst (drive (Adversary.create ~seed:11 pol)) in
      let a = run () and b = run () in
      Alcotest.(check string)
        (name ^ ": same seed, same schedule")
        (schedule_str a.Adversary.schedule)
        (schedule_str b.Adversary.schedule);
      Alcotest.(check int) (name ^ ": same crashes") a.Adversary.crashes b.Adversary.crashes;
      Alcotest.(check int)
        (name ^ ": crashes = crash choices")
        a.Adversary.crashes
        (Schedule.crashes a.Adversary.schedule))
    policies

let test_cross_domain_determinism () =
  let runs = 8 in
  let one i =
    let pol = snd (List.nth policies (i mod List.length policies)) in
    let o, _ = drive (Adversary.create ~seed:(100 + i) pol) in
    schedule_str o.Adversary.schedule
  in
  let seq = Rcons_par.Pool.map ~domains:1 runs one in
  List.iter
    (fun domains ->
      let par = Rcons_par.Pool.map ~domains runs one in
      Alcotest.(check (array string))
        (Printf.sprintf "schedules identical on %d domains" domains)
        seq par)
    [ 2; 4 ]

(* --- Drivers delegation: the historical entry points share the stream --- *)

let test_drivers_stream_parity () =
  for seed = 0 to 9 do
    let direct =
      let sys = Helpers.team_system (Lazy.force sticky_cert) () in
      let rng = Random.State.make [| seed |] in
      let adv = Adversary.of_rng ~rng (Adversary.Uniform { crash_prob = 0.3; max_crashes = 6 }) in
      let o = Adversary.run ~record:false adv sys.Helpers.sim in
      (o.Adversary.crashes, Sim.total_steps sys.Helpers.sim)
    in
    let via_drivers =
      let sys = Helpers.team_system (Lazy.force sticky_cert) () in
      let rng = Random.State.make [| seed |] in
      let crashes = Drivers.random ~crash_prob:0.3 ~max_crashes:6 ~rng sys.Helpers.sim in
      (crashes, Sim.total_steps sys.Helpers.sim)
    in
    Alcotest.(check (pair int int))
      (Printf.sprintf "Drivers.random = Adversary Uniform (seed %d)" seed)
      direct via_drivers
  done

(* --- recorded schedules replay --- *)

let test_recorded_schedule_replays () =
  List.iter
    (fun (name, pol) ->
      let o, steps = drive (Adversary.create ~seed:3 pol) in
      let sys = Helpers.team_system (Lazy.force sticky_cert) () in
      List.iter (Schedule.apply sys.Helpers.sim) o.Adversary.schedule;
      Alcotest.(check bool) (name ^ ": replay finishes the system") true
        (Sim.all_finished sys.Helpers.sim);
      Alcotest.(check int) (name ^ ": replay reproduces step count") steps
        (Sim.total_steps sys.Helpers.sim);
      sys.Helpers.check ())
    policies

let test_json_round_trip () =
  let o, _ = drive (Adversary.create ~seed:5 (snd (List.hd policies))) in
  let rt = Schedule.of_json (Json.parse_exn (Json.to_string (Schedule.to_json o.Adversary.schedule))) in
  Alcotest.(check string) "schedule JSON round-trip"
    (schedule_str o.Adversary.schedule)
    (schedule_str rt)

(* Every finite float prints in a form that parses back to the same
   float (bit for bit) and as a [Float], never an [Int]. *)
let qcheck_json_float_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"JSON float printing round-trips"
       ~print:(Printf.sprintf "%h")
       QCheck2.Gen.(
         oneof
           [
             float;
             map Int64.float_of_bits int64;
             map float_of_int int;
             oneofl [ 1e15; -1e15; 1234567890123456.; 18.891; 0.1; -0.; 5e-324; max_float ];
           ])
       (fun f ->
         QCheck2.assume (Float.is_finite f);
         match Json.parse_exn (Json.to_string (Json.Float f)) with
         | Json.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
         | _ -> false))

let test_json_float_printing () =
  Alcotest.(check string) "shortest form" "18.891" (Json.to_string (Json.Float 18.891));
  Alcotest.(check string) "integral float keeps its point" "3.0" (Json.to_string (Json.Float 3.));
  Alcotest.(check bool) "1e15 reads back as a Float" true
    (Json.parse_exn (Json.to_string (Json.Float 1e15)) = Json.Float 1e15)

(* --- shrinker soundness --- *)

let broken_mk () = team_mk ~faithful:false (Lazy.force sticky3_cert) ()

let find_violation () =
  match Explore.explore ~max_crashes:0 ~mk:broken_mk () with
  | (_ : Explore.stats) -> Alcotest.fail "expected the broken variant to violate"
  | exception Explore.Violation v -> v

let test_shrink_sound_and_minimal () =
  let v = find_violation () in
  match Shrink.minimize ~mk:broken_mk v.Explore.v_schedule with
  | None -> Alcotest.fail "minimize lost the violation"
  | Some (shrunk, _msg) ->
      Alcotest.(check bool) "shrunk is no longer" true
        (List.length shrunk <= List.length v.Explore.v_schedule);
      (match Shrink.check ~mk:broken_mk shrunk with
      | None -> Alcotest.fail "shrunk schedule does not violate"
      | Some (_, used) ->
          Alcotest.(check int) "no dead tail: the whole shrunk schedule is consumed" used
            (List.length shrunk));
      (* 1-minimality: removing any single choice loses the violation *)
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) shrunk in
          match Shrink.check ~mk:broken_mk without with
          | None -> ()
          | Some (msg, _) ->
              Alcotest.failf "removing choice %d still violates (%s): not 1-minimal" i msg)
        shrunk

(* Any violation an adversary stumbles on is never lost by minimization:
   for every seed, if the recorded run ends in violated outputs, the
   shrinker returns a violating schedule no longer than the original. *)
let qcheck_shrink_never_loses =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"minimization never loses an adversary-found violation"
       ~print:string_of_int
       QCheck2.Gen.(int_bound 10_000)
       (fun seed ->
         let sys = Helpers.team_system ~faithful:false (Lazy.force sticky3_cert) () in
         let adv =
           Adversary.create ~seed (Adversary.Uniform { crash_prob = 0.2; max_crashes = 4 })
         in
         let o = Adversary.run adv sys.Helpers.sim in
         match Shrink.check ~mk:broken_mk o.Adversary.schedule with
         | None -> true (* this seed found no violation: nothing to preserve *)
         | Some _ -> (
             match Shrink.minimize ~mk:broken_mk o.Adversary.schedule with
             | None -> false
             | Some (shrunk, _) ->
                 List.length shrunk <= List.length o.Adversary.schedule
                 && Shrink.check ~mk:broken_mk shrunk <> None)))

(* --- checkpoint / resume --- *)

let stats_str (s : Explore.stats) =
  Format.asprintf "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d}"
    s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states

(* Run to completion under a node budget, resuming (through the JSON
   round-trip) every time the budget trips; count the interrupts. *)
let run_chunked ?dedup ~max_crashes ~node_budget mk =
  let interrupts = ref 0 in
  let rec go resume_from =
    match Explore.explore ?dedup ~max_crashes ~node_budget ?resume_from ~mk () with
    | stats -> (stats, !interrupts)
    | exception Explore.Interrupted cp ->
        incr interrupts;
        let cp = Explore.checkpoint_of_json (Explore.checkpoint_to_json cp) in
        go (Some cp)
  in
  go None

let test_resume_raw_bit_identical () =
  let mk = team_mk (Lazy.force sticky_cert) in
  let full = Explore.explore ~max_crashes:1 ~mk () in
  let chunked, interrupts = run_chunked ~max_crashes:1 ~node_budget:20_000 mk in
  Alcotest.(check bool) "budget actually tripped" true (interrupts >= 2);
  Alcotest.(check string) "raw resume: stats bit-identical" (stats_str full) (stats_str chunked)

let test_resume_dedup_bit_identical () =
  let mk = team_mk (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  let full = Explore.explore ~dedup:true ~max_crashes:2 ~mk () in
  let chunked, interrupts = run_chunked ~dedup:true ~max_crashes:2 ~node_budget:3_000 mk in
  Alcotest.(check bool) "dedup budget actually tripped" true (interrupts >= 2);
  Alcotest.(check string) "dedup resume: stats bit-identical" (stats_str full)
    (stats_str chunked)

let test_resume_finds_violation () =
  let rec go resume_from =
    match Explore.explore ~max_crashes:0 ~node_budget:50 ?resume_from ~mk:broken_mk () with
    | (_ : Explore.stats) -> Alcotest.fail "expected a violation across resumes"
    | exception Explore.Interrupted cp -> go (Some cp)
    | exception Explore.Violation v -> v
  in
  let direct = find_violation () in
  let resumed = go None in
  Alcotest.(check string) "violation schedule identical across resumes"
    (schedule_str direct.Explore.v_schedule)
    (schedule_str resumed.Explore.v_schedule)

let test_resume_parameter_mismatch_refused () =
  let mk = team_mk (Lazy.force sticky_cert) in
  match Explore.explore ~max_crashes:1 ~node_budget:500 ~mk () with
  | (_ : Explore.stats) -> Alcotest.fail "budget should have tripped"
  | exception Explore.Interrupted cp -> (
      match Explore.explore ~max_crashes:2 ~resume_from:cp ~mk () with
      | (_ : Explore.stats) -> Alcotest.fail "mismatched resume accepted"
      | exception Invalid_argument _ -> ())

(* A checkpoint names the workload it was cut from: resuming a lossy
   run's checkpoint on the eager workload would walk a different tree
   (and miss the lossy violation), so it is refused.  A checkpoint
   without the field (written before it existed) still resumes. *)
let test_resume_workload_mismatch_refused () =
  let module Cex = Rcons.Counterexample in
  let lossy = Cex.team2 ~persist:Persist.Lossy "S2" and eager = Cex.team2 "S2" in
  let mk w = match Cex.mk w with Ok mk -> mk | Error e -> Alcotest.fail e in
  let resume w cp =
    Explore.explore ~max_crashes:1 ~resume_from:cp ~fingerprint:(Cex.fingerprint w) ~mk:(mk w) ()
  in
  match
    Explore.explore ~max_crashes:1 ~node_budget:300 ~fingerprint:(Cex.fingerprint lossy)
      ~mk:(mk lossy) ()
  with
  | (_ : Explore.stats) -> Alcotest.fail "budget should have tripped"
  | exception Explore.Interrupted cp -> (
      let json = Explore.checkpoint_to_json cp in
      let cp = Explore.checkpoint_of_json json in
      (match resume eager cp with
      | (_ : Explore.stats) -> Alcotest.fail "checkpoint resumed on another workload"
      | exception Invalid_argument _ -> ());
      (match resume lossy cp with
      | (_ : Explore.stats) -> Alcotest.fail "the lossy workload violates"
      | exception Explore.Violation _ -> ());
      let unnamed =
        match json with
        | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "workload") kvs)
        | j -> j
      in
      match resume eager (Explore.checkpoint_of_json unnamed) with
      | (_ : Explore.stats) -> ()
      | exception Invalid_argument m -> Alcotest.fail ("unnamed checkpoint refused: " ^ m))

(* --- counterexample artifacts --- *)

let test_artifact_round_trip () =
  let module Cex = Rcons.Counterexample in
  let w = Cex.team2 ~faithful:false ~level:3 "sticky" in
  let mk = match Cex.mk w with Ok mk -> mk | Error e -> Alcotest.fail e in
  match Explore.explore ~max_crashes:0 ~mk ~fingerprint:(Cex.fingerprint w) () with
  | (_ : Explore.stats) -> Alcotest.fail "expected a violation"
  | exception Explore.Violation v -> (
      let cex = Cex.of_violation w v in
      let min = match Cex.minimize cex with Ok m -> m | Error e -> Alcotest.fail e in
      Alcotest.(check bool) "shrunk_from recorded" true (min.Cex.shrunk_from <> None);
      let rt = Cex.of_json (Json.parse_exn (Json.to_string (Cex.to_json min))) in
      (match Cex.replay rt with
      | `Violated _ -> ()
      | `Passed -> Alcotest.fail "round-tripped artifact no longer violates");
      (* replay against the wrong workload is refused *)
      let wrong = { rt with Cex.workload = Cex.team2 "S_2" } in
      match Cex.replay wrong with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "fingerprint mismatch not detected")

(* --- artifact loaders --- *)

let with_field k v = function
  | Json.Obj kvs -> Json.Obj (List.map (fun (k', x) -> if k' = k then (k, v) else (k', x)) kvs)
  | j -> j

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let refused ~sub f =
  match f () with
  | _ -> Alcotest.fail ("accepted; expected a refusal naming " ^ sub)
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %S" msg sub) true (contains ~sub msg)

(* Locate the committed checkpoint from wherever the runner is cwd'd. *)
let find_fixture () =
  let rec go dir depth =
    if depth > 6 then Alcotest.fail "cannot locate test/fixtures/s2_dedup_budget1000.checkpoint.json"
    else
      let f = Filename.concat dir "test/fixtures/s2_dedup_budget1000.checkpoint.json" in
      if Sys.file_exists f then f else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

let test_loaders_check_version () =
  let module Cex = Rcons.Counterexample in
  let cp = Json.parse_exn (In_channel.with_open_bin (find_fixture ()) In_channel.input_all) in
  ignore (Explore.checkpoint_of_json cp);
  refused ~sub:"version 99" (fun () -> Explore.checkpoint_of_json (with_field "version" (Json.Int 99) cp));
  refused ~sub:{|field "version": expected int|} (fun () ->
      Explore.checkpoint_of_json (with_field "version" (Json.String "1") cp));
  let cex =
    Cex.to_json
      {
        Cex.workload = Cex.team2 "S2";
        msg = "agreement violated";
        schedule = [ Explore.Step_choice 0 ];
        shrunk_from = None;
        provenance = None;
      }
  in
  ignore (Cex.of_json cex);
  refused ~sub:"version 2" (fun () -> Cex.of_json (with_field "version" (Json.Int 2) cex))

let test_loaders_name_fields () =
  (* A value of the wrong type is named by its field, not by the Json
     accessor that tripped over it. *)
  let module Cex = Rcons.Counterexample in
  let cp = Json.parse_exn (In_channel.with_open_bin (find_fixture ()) In_channel.input_all) in
  refused ~sub:{|field "max_crashes": expected int|} (fun () ->
      Explore.checkpoint_of_json (with_field "max_crashes" (Json.String "2") cp));
  refused ~sub:{|field "cursor": expected list|} (fun () ->
      Explore.checkpoint_of_json (with_field "cursor" (Json.Int 0) cp));
  refused ~sub:{|field "visited": expected string|} (fun () ->
      Explore.checkpoint_of_json (with_field "visited" (Json.List [ Json.Int 0 ]) cp));
  let cex =
    Cex.to_json
      {
        Cex.workload = Cex.team2 "S2";
        msg = "agreement violated";
        schedule = [ Explore.Step_choice 0 ];
        shrunk_from = None;
        provenance = None;
      }
  in
  let workload = Json.field "workload" cex in
  refused ~sub:{|field "level": expected int|} (fun () ->
      Cex.of_json (with_field "workload" (with_field "level" (Json.String "2") workload) cex));
  refused ~sub:{|field "msg": expected string|} (fun () -> Cex.of_json (with_field "msg" Json.Null cex))

let test_resume_truncated_visited_refused () =
  (* A dedup checkpoint whose visited list was cut resumes to wrong
     totals (the cut states are expanded again), so the loader checks
     the list against stats.distinct_states.  The cut copy is made here;
     the committed fixture stays as it is. *)
  let fixture = find_fixture () in
  let cp = Explore.load_checkpoint ~file:fixture in
  let json = Json.parse_exn (In_channel.with_open_bin fixture In_channel.input_all) in
  let visited = Json.to_list (Json.field "visited" json) in
  Alcotest.(check int) "the fixture lists every state" (Explore.checkpoint_stats cp).Explore.distinct_states
    (List.length visited);
  let write j =
    let file = Filename.temp_file "rcons_ckpt" ".json" in
    Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string j));
    file
  in
  let cut = write (with_field "visited" (Json.List (List.filteri (fun i _ -> i < 10) visited)) json) in
  refused ~sub:"visited lists 10 states" (fun () -> Explore.load_checkpoint ~file:cut);
  Sys.remove cut;
  let dup =
    write (with_field "visited" (Json.List (List.hd visited :: List.tl (List.rev visited))) json)
  in
  refused ~sub:"twice" (fun () -> Explore.load_checkpoint ~file:dup);
  Sys.remove dup

let suite =
  [
    Alcotest.test_case "same seed => same schedule (all policies)" `Quick test_seed_determinism;
    Alcotest.test_case "schedules identical across domain counts" `Quick
      test_cross_domain_determinism;
    Alcotest.test_case "Drivers.random keeps the historical RNG stream" `Quick
      test_drivers_stream_parity;
    Alcotest.test_case "recorded schedules replay exactly" `Quick test_recorded_schedule_replays;
    Alcotest.test_case "schedule JSON round-trip" `Quick test_json_round_trip;
    qcheck_json_float_round_trip;
    Alcotest.test_case "JSON float printing" `Quick test_json_float_printing;
    Alcotest.test_case "shrunk witness violates and is 1-minimal" `Quick
      test_shrink_sound_and_minimal;
    qcheck_shrink_never_loses;
    Alcotest.test_case "resume: raw stats bit-identical" `Quick test_resume_raw_bit_identical;
    Alcotest.test_case "resume: dedup stats bit-identical" `Quick test_resume_dedup_bit_identical;
    Alcotest.test_case "resume: violation schedule preserved" `Quick test_resume_finds_violation;
    Alcotest.test_case "resume: parameter mismatch refused" `Quick
      test_resume_parameter_mismatch_refused;
    Alcotest.test_case "resume: workload mismatch refused" `Quick
      test_resume_workload_mismatch_refused;
    Alcotest.test_case "counterexample artifact round-trip" `Quick test_artifact_round_trip;
    Alcotest.test_case "artifact loaders check the version" `Quick test_loaders_check_version;
    Alcotest.test_case "artifact type errors name the field" `Quick test_loaders_name_fields;
    Alcotest.test_case "resume: truncated visited list refused" `Quick
      test_resume_truncated_visited_refused;
  ]
