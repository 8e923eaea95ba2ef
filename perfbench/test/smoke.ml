(* Smoke tests of the benchmark harness: S_2 raw at one crash and a
   4-instance soak, untraced and traced, checked against pinned counts;
   then a miniature workload through [Bench.run], whose metric names
   and units must be exactly the ones BENCHMARK.json declares. *)

open Rcons_perfbench
module E = Rcons.Runtime.Explore
module Soak = Rcons.Service.Soak
module Json = Rcons.Runtime.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let explore () =
  let inp = Explore_part.setup Explore_part.smoke in
  let st = Explore_part.run inp in
  check "explore smoke: pinned stats" (st = Explore_part.smoke.Explore_part.pin);
  let tr = Explore_part.traced inp in
  check "explore smoke traced: one check per edge"
    (tr.Explore_part.checks = st.E.nodes && tr.Explore_part.built = 1);
  check "explore smoke traced: pinned undo counts"
    (tr.Explore_part.tel.Rcons.Par.Pool.Telemetry.restores = 30_119
    && tr.Explore_part.tel.Rcons.Par.Pool.Telemetry.undo_entries = 186_298);
  let c = tr.Explore_part.costs in
  check "explore smoke traced: per-call costs are positive"
    (c.Explore_part.step_ns > 0. && c.Explore_part.rollback_ns > 0. && c.Explore_part.add_ns > 0.)

let serve () =
  let inp = Serve_part.setup Serve_part.smoke ~seed:1500 in
  let s = Serve_part.run inp in
  Printf.printf "soak smoke: %d submitted, %d acked, digest %s\n" s.Soak.s_submitted
    s.Soak.s_acked s.Soak.s_commit_digest;
  check "serve smoke: pinned counts"
    (s.Soak.s_submitted = 252
    && s.Soak.s_acked = 252
    && s.Soak.s_commit_digest = "283ef3cea333d46812bb34e7b02148f5");
  let tr = Serve_part.traced inp in
  check "serve smoke traced: per-instance runs match the soak" (tr.Serve_part.summary = s)

let names_units ms = List.sort compare (List.map (fun m -> (m.Util.name, m.Util.unit_)) ms)

let declared key =
  let spec = Json.parse_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  match Json.field key spec with
  | Json.List l ->
      List.sort compare
        (List.map (fun m -> (Json.to_str (Json.field "name" m), Json.to_str (Json.field "unit" m))) l)
  | _ -> invalid_arg key

let bench () =
  let w =
    {
      Workload.name = "smoke";
      main = Workload.Explore Explore_part.smoke;
      other = Workload.Serve Serve_part.smoke;
    }
  in
  let run ~trace =
    (* each report makes the round trip between processes *)
    let part role =
      let r = Bench.run_part w ~role ~seed:1500 ~seconds:0.5 ~trace in
      Bench.of_json (Json.parse_exn (Json.to_string ~indent:0 (Bench.to_json r)))
    in
    let mains = List.init (if trace then 1 else 2) (fun _ -> part Bench.Main) in
    let _, metrics, _ = Bench.combine w ~trace mains (part Bench.Other) in
    metrics
  in
  let ms = run ~trace:false in
  check "bench untraced: end-to-end metrics as declared" (names_units ms = declared "end_to_end");
  check "bench untraced: every metric positive" (List.for_all (fun m -> m.Util.value > 0.) ms);
  let ms = run ~trace:true in
  check "bench traced: per-layer metrics as declared" (names_units ms = declared "per_layer")

let () =
  Percall.quota := 0.005;
  explore ();
  serve ();
  bench ();
  if !failures > 0 then exit 1
