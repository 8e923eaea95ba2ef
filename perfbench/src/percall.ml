(* Per-call costs with Bechamel: ordinary least squares of monotonic-clock
   time against the number of runs, the idiom of bench/timing.ml.  The
   garbage collector is not stabilized between samples, so a probe costs
   its quotas and no full-heap compaction. *)

open Bechamel
open Toolkit

(* Seconds of sampling per estimate; the smoke tests lower it. *)
let quota = ref 0.05

(* Estimates per probed function.  Other tenants of the machine only
   ever slow a sample down, so the cost reported is the least of them. *)
let estimates = 3

let estimate name f =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let test = Test.make ~name (Staged.stage f) in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ r acc -> r :: acc) res [] with
  | [ r ] -> (
      match Analyze.OLS.estimates r with
      | Some (x :: _) when Float.is_finite x -> x
      | _ -> Util.fail "bechamel gave no estimate for %s" name)
  | _ -> Util.fail "bechamel returned no single result for %s" name

let ns name f = List.fold_left Float.min infinity (List.init estimates (fun _ -> estimate name f))

(* Cost of the clock reads around a wrapped call, for subtracting from
   traced self times.  Returns (ns inside the measured interval, ns the
   whole wrapper adds over a bare call). *)
let clock_cost () =
  let n = 1_000_000 in
  let noop = Sys.opaque_identity (fun () -> ()) in
  let inside = ref 0. in
  let (), wrapped =
    Util.time (fun () ->
        for _ = 1 to n do
          let t0 = Util.now () in
          noop ();
          inside := !inside +. (Util.now () -. t0)
        done)
  in
  let (), bare = Util.time (fun () -> for _ = 1 to n do noop () done) in
  let per x = x *. 1e9 /. float_of_int n in
  (per !inside, per (wrapped -. bare))
