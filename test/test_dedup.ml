(* State-space deduplication: fingerprint soundness and the explorer's
   dedup mode.

   Three layers of guarantees are pinned here:
   - [~dedup:false] is byte-identical to the pre-dedup explorer -- the
     raw statistics on the Figure 2 and Figure 4 suites are hard-coded
     baselines captured from the seed explorer, so any accidental change
     to raw-mode semantics (either backtracking strategy) fails
     loudly;
   - [~dedup:true] is deterministic: sequential and parallel runs report
     identical statistics on any domain count / frontier depth, and a
     violating algorithm yields the identical violation schedule;
   - [Sim.fingerprint] is replay-stable (qcheck): re-executing the same
     schedule against a fresh system from the same builder reproduces the
     fingerprint byte for byte -- the property that makes deduplication
     sound across replays and domains -- and its bytes are pinned, so a
     rewrite of an emitter cannot silently orphan saved checkpoints. *)

open Rcons_runtime
open Rcons_algo

let domains = 4

let stats_eq =
  Alcotest.testable
    (fun ppf (s : Explore.stats) ->
      Format.fprintf ppf
        "{schedules=%d; nodes=%d; max_depth=%d; dedup_hits=%d; distinct_states=%d; por_pruned=%d; \
         symmetry_hits=%d}"
        s.schedules s.nodes s.max_depth s.dedup_hits s.distinct_states s.por_pruned
        s.symmetry_hits)
    ( = )

let team_mk ?faithful cert () =
  let sys = Helpers.team_system ?faithful cert () in
  (sys.Helpers.sim, sys.Helpers.check)

(* Figure 4: recoverable consensus from consensus under simultaneous
   crashes; consensus instances are created lazily during execution, so
   this system exercises mid-run heap registration. *)
let fig4_mk n () =
  let inputs = Array.init n (fun i -> (i + 1) * 10) in
  let outputs = Outputs.make ~inputs in
  let make_consensus () =
    let c = One_shot.create () in
    { Simultaneous_rc.propose = (fun _pid v -> One_shot.decide c v) }
  in
  let rc = Simultaneous_rc.create ~n ~make_consensus in
  let body pid () = Outputs.record outputs pid (Simultaneous_rc.decide rc pid inputs.(pid)) in
  (Sim.create ~n body, fun () -> Outputs.check_exn ~fail:Explore.fail outputs)

let raw (schedules, nodes, max_depth) : Explore.stats =
  { schedules; nodes; max_depth; dedup_hits = 0; distinct_states = 0; por_pruned = 0; symmetry_hits = 0 }

(* --- raw mode is byte-identical to the seed explorer --- *)

let test_raw_baselines () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let sticky = Helpers.cert_of Rcons_spec.Sticky_bit.t 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 1 crash"
    (raw (30120, 112674, 19))
    (Explore.explore ~max_crashes:1 ~mk:(team_mk s2) ());
  Alcotest.check stats_eq "Figure 2 on sticky bit, 1 crash"
    (raw (29470, 109374, 18))
    (Explore.explore ~max_crashes:1 ~mk:(team_mk sticky) ());
  Alcotest.check stats_eq "Figure 4, n=2, no crashes"
    (raw (3432, 12868, 14))
    (Explore.explore ~max_crashes:0 ~mk:(fig4_mk 2) ())

let test_raw_baseline_two_crashes () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  Alcotest.check stats_eq "Figure 2 on S_2, 2 crashes"
    (raw (1442171, 5417237, 24))
    (Explore.explore ~max_crashes:2 ~mk:(team_mk s2) ())

(* --- dedup determinism: seq = par on any domain count / frontier --- *)

let test_dedup_seq_par_identical () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(team_mk cert) () in
  Alcotest.(check bool) "dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.(check bool) "distinct states counted" true (seq.distinct_states > 0);
  List.iter
    (fun (domains, frontier_depth) ->
      let par =
        Explore.explore ~max_crashes:1 ~dedup:true ~domains ~frontier_depth ~mk:(team_mk cert) ()
      in
      Alcotest.check stats_eq
        (Printf.sprintf "dedup stats (domains %d, frontier %d)" domains frontier_depth)
        seq par)
    [ (2, 1); (4, 3); (4, 7); (8, 4) ]

let test_dedup_fig4_identical () =
  let seq = Explore.explore ~max_crashes:1 ~dedup:true ~mk:(fig4_mk 2) () in
  let par = Explore.explore ~max_crashes:1 ~dedup:true ~domains ~mk:(fig4_mk 2) () in
  Alcotest.(check bool) "fig4 dedup actually deduplicates" true (seq.dedup_hits > 0);
  Alcotest.check stats_eq "fig4 dedup stats seq = par" seq par

(* The acceptance bar of this change: on the 2-crash Figure 2 / S_2
   workload, deduplication must visit at least 5x fewer nodes than the
   raw tree walk (whose size is pinned by [test_raw_baseline_two_crashes])
   with the same pass outcome. *)
let test_dedup_node_reduction () =
  let cert = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let raw_nodes = 5_417_237 in
  let dd = Explore.explore ~max_crashes:2 ~dedup:true ~mk:(team_mk cert) () in
  Alcotest.(check bool)
    (Printf.sprintf "dedup nodes %d <= raw nodes %d / 5" dd.nodes raw_nodes)
    true
    (dd.nodes * 5 <= raw_nodes);
  Alcotest.(check int) "hits + distinct = nodes + root" (dd.nodes + 1)
    (dd.dedup_hits + dd.distinct_states)

let test_dedup_violation_schedule_identical () =
  let cert = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let run ?domains ?frontier_depth () =
    match
      Explore.explore ?domains ?frontier_depth ~max_crashes:0 ~dedup:true
        ~mk:(team_mk ~faithful:false cert) ()
    with
    | (_ : Explore.stats) -> Alcotest.fail "expected a violation"
    | exception Explore.Violation { v_msg = msg; v_schedule = sched; _ } ->
        Format.asprintf "%s at %a" msg Explore.pp_schedule sched
  in
  let seq = run () in
  List.iter
    (fun frontier_depth ->
      Alcotest.(check string)
        (Printf.sprintf "dedup violation schedule (frontier %d)" frontier_depth)
        seq
        (run ~domains ~frontier_depth ()))
    [ 1; 3; 5 ]

(* --- fingerprint replay stability (qcheck) --- *)

(* Decode an int list into a schedule applied directly (legality does not
   matter for stability -- both executions apply the same operations). *)
let apply_encoded sim codes =
  let n = Sim.num_procs sim in
  List.iter
    (fun x ->
      let pid = x mod n in
      if x mod 5 = 0 then Sim.crash sim pid
      else if not (Sim.finished sim pid) then ignore (Sim.step_proc sim pid))
    codes

(* [f] of the system [mk] builds under a fresh arena, after [codes]. *)
let observe_after mk codes f =
  let saved = Heap.current () in
  Heap.activate (Heap.create ());
  Fun.protect
    ~finally:(fun () -> match saved with Some a -> Heap.activate a | None -> Heap.deactivate ())
    (fun () ->
      let sim, _check = mk () in
      apply_encoded sim codes;
      let r = f sim in
      Sim.abandon sim;
      r)

let fingerprint_after mk codes = observe_after mk codes Sim.fingerprint

(* --- fingerprint bytes are pinned --- *)

(* Fingerprints are persisted: checkpoints store visited-set digests, so
   a change to the fingerprint bytes silently invalidates every saved
   checkpoint of a dedup run.  The hex digests below were captured from
   the fingerprint format as shipped; any encoder change must reproduce
   them exactly.  Each case covers one emitter: the graded and ungraded
   process sections, the pid-bearing cache-line forms of [Cell] and
   [Sim_obj] (a lossy system whose last step leaves a line dirty), the
   [Growable] entries of Figure 4, and the relabeled heap slots of the
   canonical (symmetry-quotiented) digest. *)
let hex_fingerprint sim = Digest.to_hex (Digest.string (Sim.fingerprint sim))

let pinned_codes =
  [ 1; 2; 3; 4; 6; 7; 8; 10; 11; 12; 13; 14; 16; 17; 18; 19; 21; 22; 23; 24; 26; 27; 28; 29; 31;
    33; 37; 41; 43; 47; 49; 51; 53; 15; 57; 58; 59; 61; 62; 63; 64; 66 ]

let test_fingerprint_bytes_pinned () =
  let s2 = Helpers.cert_of (Rcons_spec.Sn.make 2) 2 in
  let pin ?(codes = pinned_codes) name expected mk f =
    Alcotest.(check string) name expected (observe_after mk codes f)
  in
  pin "S_2 graded" "db85f0390c00e4e77c50bf39cbf5da38" (team_mk s2) hex_fingerprint;
  pin "S_2 ungraded" "12dbc7a77b8b2971a33c5def3795aad1" (team_mk s2) (fun sim ->
      Digest.to_hex (Sim.fingerprint_digest ~graded:false sim));
  (* The last step is p0's operation on the [Sim_obj]: its line is
     still dirty and owned by p0.  After the full schedule every line
     is clean again. *)
  Persist.scoped Persist.Lossy (fun () ->
      pin ~codes:[ 1; 2; 3; 4; 6; 7; 8 ] "S_2 lossy, dirty owned line"
        "a2829da973f373cf9b932d076426bfab" (team_mk s2) hex_fingerprint;
      pin "S_2 lossy, clean lines" "469ce49a676ddaccbf3e06c4fcee1d3d" (team_mk s2) hex_fingerprint);
  pin "Figure 4" "e98e8b5e9fe78e1f85fd5df73b8f83f7" (fig4_mk 3) hex_fingerprint;
  Persist.scoped Persist.Lossy (fun () ->
      pin "Figure 4 lossy" "7ba9fa049dd9f0fa8d52dae9b659817a" (fig4_mk 3) hex_fingerprint);
  let sticky3 = Helpers.cert_of Rcons_spec.Sticky_bit.t 3 in
  let classes = Rcons_check.Certificate.symmetry_classes sticky3 in
  Persist.scoped Persist.Lossy (fun () ->
      pin "sticky level 3 lossy, canonical"
        "2 perms, min 949e8c2f42541d84a18ede80ede7e82c, beats identity true" (team_mk sticky3)
        (fun sim ->
          let perms = Sim.relabelings ~classes (Sim.num_procs sim) in
          let d, beat = Sim.fingerprint_digest_canonical ~perms sim in
          Printf.sprintf "%d perms, min %s, beats identity %b" (List.length perms)
            (Digest.to_hex d) beat))

(* [Heap.add_int] is the one integer encoder of fingerprints: it must
   append exactly what [string_of_int] prints, for every int. *)
let add_int_bytes n =
  let b = Buffer.create 8 in
  Buffer.add_char b '<';
  Heap.add_int b n;
  Buffer.contents b

let test_add_int_cases () =
  let powers = List.init 18 (fun k -> int_of_float (10. ** float_of_int (k + 1))) in
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) ("<" ^ string_of_int n) (add_int_bytes n))
    ([ 0; 9; 10; 99; 100; -1; -9; -10; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; p + 1; -p; 1 - p ]) powers)

let qcheck_add_int =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"Heap.add_int writes the bytes of string_of_int"
       ~print:string_of_int
       QCheck2.Gen.(oneof [ int; small_signed_int; int_range (-1_000_000) 1_000_000 ])
       (fun n -> add_int_bytes n = "<" ^ string_of_int n))

let schedule_gen = QCheck2.Gen.(list_size (int_range 0 14) (int_bound 999))

let qcheck_fingerprint_stable =
  let cert = lazy (Helpers.cert_of (Rcons_spec.Sn.make 2) 2) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"fingerprint is replay-stable (random schedules)"
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes ->
         let mk = team_mk (Lazy.force cert) in
         fingerprint_after mk codes = fingerprint_after mk codes))

let qcheck_fingerprint_stable_fig4 =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"fingerprint is replay-stable (Figure 4, lazy objects)"
       ~print:(fun codes -> String.concat ";" (List.map string_of_int codes))
       schedule_gen
       (fun codes -> fingerprint_after (fig4_mk 3) codes = fingerprint_after (fig4_mk 3) codes))

let suite =
  [
    Alcotest.test_case "raw mode matches seed baselines" `Quick test_raw_baselines;
    Alcotest.test_case "raw mode matches seed baseline (2 crashes)" `Slow
      test_raw_baseline_two_crashes;
    Alcotest.test_case "dedup stats: seq = par (domain/frontier sweep)" `Quick
      test_dedup_seq_par_identical;
    Alcotest.test_case "dedup stats: seq = par on Figure 4" `Quick test_dedup_fig4_identical;
    Alcotest.test_case "dedup node reduction >= 5x (2 crashes)" `Slow test_dedup_node_reduction;
    Alcotest.test_case "dedup violation schedule: seq = par" `Quick
      test_dedup_violation_schedule_identical;
    Alcotest.test_case "fingerprint bytes are pinned" `Quick test_fingerprint_bytes_pinned;
    Alcotest.test_case "Heap.add_int edge cases" `Quick test_add_int_cases;
    qcheck_add_int;
    qcheck_fingerprint_stable;
    qcheck_fingerprint_stable_fig4;
  ]
