(* One part of a benchmark run: set up the part, measure it untraced
   (end-to-end metrics) or traced (per-layer metrics), and check every
   output.  The command line runs each part in fresh child processes --
   the main part in [main_processes] of them, the other part in one --
   and combines their reports, so no part pays for another's heap. *)

open Workload
module Soak = Rcons.Service.Soak
module Json = Rcons.Runtime.Json

type role = Main | Other

(* What one process reports about its part.  Untraced, [runs] holds the
   timed repeats and [metrics] the metrics the seed determines; traced,
   [runs] is empty and [metrics] holds the part's per-layer metrics. *)
type report = {
  attempted : int;
  setup_s : float;
  work : float;  (** edges or submitted ops in one repeat *)
  runs : Calib.run list;
  peak_mb : float;  (** VmHWM after the first repeat; 0 when traced *)
  metrics : Util.metric list;
  info : (string * string) list;
}

let setup_reps = 101

(* Set-up is timed [setup_reps] times from scratch (the witness searches
   keep no memo tables across calls); the median, at the host-speed
   reference's speed, is reported and the last inputs are used.  Early
   repetitions run on a cold heap and caches, so many repetitions put
   the median in the steady state. *)
let setup part ~seed =
  let last = ref None in
  let times =
    List.init setup_reps (fun _ ->
        let ins, dt = Util.time (fun () -> Workload.setup ~seed part) in
        last := Some ins;
        dt)
  in
  (Option.get !last, Calib.scale (Util.median times))

(* The main part dominates the run.  It runs in several processes, each
   a fresh program whose first repeat gives a peak resident set: the
   collector's timing on two domains makes single peaks bimodal, and the
   least of several is steady. *)
let main_processes = 4

let budget role ~seconds =
  match role with
  | Main -> 0.85 *. seconds /. float_of_int main_processes
  | Other -> 0.15 *. seconds

let min_runs = function Main -> 1 | Other -> 3

let untraced role ins ~setup_s ~seconds =
  let budget = budget role ~seconds and min_runs = min_runs role in
  let peak = ref 0. in
  let first () = peak := Util.peak_rss_mb () in
  let r =
    match ins with
    | Explore_in e ->
        let runs = Explore_part.measure ~first ~budget ~min_runs e in
        {
          attempted = List.length runs;
          setup_s;
          work = float_of_int e.Explore_part.spec.Explore_part.pin.Rcons.Runtime.Explore.nodes;
          runs;
          peak_mb = 0.;
          metrics = [];
          info = [];
        }
    | Serve_in s ->
        let sum, runs = Serve_part.measure ~first ~budget ~min_runs s in
        {
          attempted = List.length runs * sum.Soak.s_instances;
          setup_s;
          work = float_of_int sum.Soak.s_submitted;
          runs;
          peak_mb = 0.;
          metrics = Serve_part.behaviour sum;
          info =
            [
              ("serve_latency_samples", string_of_int sum.Soak.s_latency.total);
              ("serve_recovery_samples", string_of_int sum.Soak.s_recovery.total);
              ("serve_submitted", string_of_int sum.Soak.s_submitted);
              ("serve_acked", string_of_int sum.Soak.s_acked);
              ("serve_commit_digest", sum.Soak.s_commit_digest);
            ];
        }
  in
  { r with peak_mb = !peak }

let traced ins ~setup_s ~main =
  let charged prefix layers = List.map (fun (k, v) -> (prefix ^ k, Printf.sprintf "%.3f" v)) layers in
  let report attempted metrics info =
    { attempted; setup_s; work = 0.; runs = []; peak_mb = 0.; metrics; info }
  in
  match ins with
  | Explore_in e ->
      let tr = Explore_part.traced e in
      (* Only the explore part is traced per call; the serve part reads
         the clock once per instance. *)
      report 3
        (Explore_part.metrics ~main tr
        @ [
            Util.m "trace.overhead_s" "s"
              (tr.Explore_part.wall_traced -. tr.Explore_part.wall_untraced);
            Util.m "trace.clock_s" "s" tr.Explore_part.clock_s;
          ])
        (charged "explore." (Explore_part.layers tr))
  | Serve_in s ->
      let tr = Serve_part.traced s in
      report
        (3 * tr.Serve_part.summary.Soak.s_instances)
        (Serve_part.metrics ~main tr)
        (charged "serve." (Serve_part.layers tr))

let part_of w = function Main -> w.main | Other -> w.other

let run_part w ~role ~seed ~seconds ~trace =
  let ins, setup_s = setup (part_of w role) ~seed in
  if trace then traced ins ~setup_s ~main:(role = Main) else untraced role ins ~setup_s ~seconds

(* The throughput metric of a part, from the median corrected repeat. *)
let rate part r =
  let name, unit_ =
    match part with
    | Explore _ -> ("explore_edges_per_s", "edges/s")
    | Serve _ -> ("serve_ops_per_s", "ops/s")
  in
  let med f = Util.median (List.map f r.runs) in
  ( Util.m name unit_ (r.work /. med (fun x -> x.Calib.corrected_s)),
    [
      (name ^ ".uncorrected", Printf.sprintf "%.1f" (r.work /. med (fun x -> x.Calib.raw_s)));
      (name ^ ".slice_ms", Printf.sprintf "%.4f" (1e3 *. med (fun x -> x.Calib.slice_s)));
      ( name ^ ".repeat_s",
        String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" x.Calib.raw_s) r.runs) );
    ] )

(* Combine the main part's reports (one per process) and the other
   part's report into the attempted count, the metrics and the info of
   the whole run.  The processes of the main part must agree on
   everything the seed determines. *)
let combine w ~trace mains other =
  let first = List.hd mains in
  List.iter
    (fun r ->
      if r.metrics <> first.metrics || r.info <> first.info then
        Util.fail "the main part's processes disagree on what seed and code determine")
    mains;
  let attempted = List.fold_left (fun n r -> n + r.attempted) other.attempted mains in
  if trace then (attempted, first.metrics @ other.metrics, first.info @ other.info)
  else begin
    let pooled = { first with runs = List.concat_map (fun r -> r.runs) mains } in
    let main_rate, main_info = rate w.main pooled in
    let other_rate, other_info = rate w.other other in
    let setup_s = Util.median (List.map (fun r -> r.setup_s) mains) +. other.setup_s in
    let peak = List.fold_left (fun a r -> Float.min a r.peak_mb) infinity mains in
    ( attempted,
      [ Util.m "setup_s" "s" setup_s; main_rate; other_rate ]
      @ first.metrics @ other.metrics
      @ [ Util.m "peak_rss_mb" "MB" peak ],
      main_info @ first.info @ other_info @ other.info
      @ [ ("peak_rss_mb.per_process", String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" r.peak_mb) mains)) ] )
  end

let metrics_json ms =
  Json.Obj
    (List.map
       (fun { Util.name; value; unit_ } ->
         if not (Float.is_finite value) then Util.fail "metric %s is not finite" name;
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
       ms)

let info_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)

(* A report as one JSON line, for the parent process. *)
let to_json r =
  let run x =
    Json.List [ Json.Float x.Calib.raw_s; Json.Float x.Calib.corrected_s; Json.Float x.Calib.slice_s ]
  in
  Json.Obj
    [
      ("attempted", Json.Int r.attempted);
      ("setup_s", Json.Float r.setup_s);
      ("work", Json.Float r.work);
      ("runs", Json.List (List.map run r.runs));
      ("peak_mb", Json.Float r.peak_mb);
      ("metrics", metrics_json r.metrics);
      ("info", info_json r.info);
    ]

let of_json j =
  let pairs = function Json.Obj kvs -> kvs | _ -> invalid_arg "Bench.of_json" in
  let list = function Json.List l -> l | _ -> invalid_arg "Bench.of_json" in
  let float k = Json.to_float (Json.field k j) in
  let run x =
    match List.map Json.to_float (list x) with
    | [ raw_s; corrected_s; slice_s ] -> { Calib.raw_s; corrected_s; slice_s }
    | _ -> invalid_arg "Bench.of_json"
  in
  {
    attempted = Json.to_int (Json.field "attempted" j);
    setup_s = float "setup_s";
    work = float "work";
    runs = List.map run (list (Json.field "runs" j));
    peak_mb = float "peak_mb";
    metrics =
      List.map
        (fun (name, v) ->
          Util.m name (Json.to_str (Json.field "unit" v)) (Json.to_float (Json.field "value" v)))
        (pairs (Json.field "metrics" j));
    info = List.map (fun (k, v) -> (k, Json.to_str v)) (pairs (Json.field "info" j));
  }

let provenance w ~seed ~seconds ~trace =
  let part p =
    let kind, params = Workload.params p in
    Json.Obj [ ("kind", Json.String kind); ("params", info_json params) ]
  in
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("main_processes", Json.Int main_processes);
      ("reference_nominal_s", Json.Float Calib.nominal_s);
      ("main", part w.main);
      ("other", part w.other);
    ]
