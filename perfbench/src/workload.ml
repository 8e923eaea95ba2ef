(* A workload pairs a main part, sized to dominate the run, with a small
   fixed part on the other subsystem, so every metric has a measured
   value on every workload.  The small part is the in-run control: a
   change to one subsystem should leave the other part's figures alone. *)

type part = Explore of Explore_part.spec | Serve of Serve_part.spec

type t = { name : string; main : part; other : part }

(* Why each workload: see BENCHMARK.json and perfbench/README.md. *)
let all =
  [
    (* steps, rollback and the invariant; never hashes, never pools *)
    { name = "explore-raw"; main = Explore Explore_part.raw; other = Serve Serve_part.companion };
    (* fingerprints, the shared visited set and the work-stealing pool *)
    { name = "explore-dedup"; main = Explore Explore_part.dedup; other = Serve Serve_part.companion };
    (* shedding, retries and per-tick session scans *)
    { name = "serve-overload"; main = Serve Serve_part.overload; other = Explore Explore_part.smoke };
    (* universal-construction stepping and online Wing-Gong windows *)
    { name = "serve-nominal"; main = Serve Serve_part.nominal; other = Explore Explore_part.smoke };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type inputs = Explore_in of Explore_part.inputs | Serve_in of Serve_part.inputs

let setup ~seed = function
  | Explore s -> Explore_in (Explore_part.setup s)
  | Serve s -> Serve_in (Serve_part.setup s ~seed)

let params = function
  | Explore s -> ("explore", Explore_part.params s)
  | Serve s -> ("serve", Serve_part.params s)
