(* The exhaustive-explorer side of a workload: Figure 2 on a recording
   certificate, explored by [Explore.explore] with the undo engine.

   Untraced runs time whole explorations against the host-speed
   reference ([Calib]), which a counter in the checker closure ticks.
   A traced run wraps the two closures the benchmark hands the explorer
   -- the system builder [mk] and the invariant checker it returns -- in
   clock reads, reads the counters the runtime already publishes
   ([Pool.Telemetry]), and multiplies counts by per-call costs measured
   with Bechamel on states drawn from the same workload.  No library
   code is instrumented. *)

module E = Rcons.Runtime.Explore
module Sim = Rcons.Runtime.Sim
module Heap = Rcons.Runtime.Heap
module Undo = Rcons.Runtime.Undo
module Cex = Rcons.Counterexample
module Visited = Rcons.Par.Visited
module Tel = Rcons.Par.Pool.Telemetry

type spec = {
  type_name : string;
  level : int;  (** recording level of the certificate = process count *)
  crashes : int;
  dedup : bool;
  domains : int;
  pin : E.stats;  (** exact statistics every run must reproduce *)
}

let stats ~schedules ~nodes ~max_depth ~dedup_hits ~distinct_states =
  { E.schedules; nodes; max_depth; dedup_hits; distinct_states; por_pruned = 0; symmetry_hits = 0 }

let raw =
  {
    type_name = "S2";
    level = 2;
    crashes = 2;
    dedup = false;
    domains = 1;
    pin =
      stats ~schedules:1_442_171 ~nodes:5_417_237 ~max_depth:24 ~dedup_hits:0 ~distinct_states:0;
  }

let dedup =
  {
    type_name = "S4";
    level = 4;
    crashes = 1;
    dedup = true;
    domains = 2;
    pin =
      stats ~schedules:491 ~nodes:1_275_099 ~max_depth:31 ~dedup_hits:894_435
        ~distinct_states:380_665;
  }

(* S_2 at one crash: the seconds-long variant of [raw], also the explore
   half of the serve workloads. *)
let smoke =
  {
    type_name = "S2";
    level = 2;
    crashes = 1;
    dedup = false;
    domains = 1;
    pin = stats ~schedules:30_120 ~nodes:112_674 ~max_depth:19 ~dedup_hits:0 ~distinct_states:0;
  }

let params s =
  [
    ("type", s.type_name);
    ("level", string_of_int s.level);
    ("max_crashes", string_of_int s.crashes);
    ("mode", if s.dedup then "dedup" else "raw");
    ("engine", "undo");
    ("domains", string_of_int s.domains);
  ]

type inputs = { spec : spec; mk : unit -> Sim.t * (unit -> unit) }

(* Set-up: the certificate witness search behind [Counterexample.mk]. *)
let setup spec =
  match Cex.mk (Cex.team2 ~level:spec.level spec.type_name) with
  | Ok mk -> { spec; mk }
  | Error e -> Util.fail "explore set-up: %s" e

let show (s : E.stats) =
  Printf.sprintf "%d schedules, %d nodes, depth %d, %d hits, %d states" s.E.schedules s.E.nodes
    s.E.max_depth s.E.dedup_hits s.E.distinct_states

(* One checked exploration. *)
let run ?domains ?mk inp =
  let s = inp.spec in
  let domains = Option.value domains ~default:s.domains in
  let mk = Option.value mk ~default:inp.mk in
  match E.explore ~max_crashes:s.crashes ~domains ~dedup:s.dedup ~undo:true ~mk () with
  | st ->
      if st <> s.pin then Util.fail "explore stats %s, expected %s" (show st) (show s.pin);
      st
  | exception E.Violation v -> Util.fail "explore found a violation: %s" v.E.v_msg
  | exception E.Budget_exceeded _ -> Util.fail "explore exceeded its node budget"

(* --- untraced --- *)

(* The checker looks at the clock every [tick_edges] edges. *)
let tick_edges = 4096

type ticker = { cal : Calib.t; mutable edges : int }

(* [mk] with a checker that counts edges and, every [tick_edges] of
   them, lets the host-speed reference of the domain walking the system
   take a slice when one is due.  This is all the untraced run adds: one
   increment per edge.  Returns the references of every domain that
   walked. *)
let with_reference mk =
  let cals = ref [] and lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let t = { cal = Calib.create (); edges = 0 } in
        Mutex.protect lock (fun () -> cals := t.cal :: !cals);
        t)
  in
  let mk' () =
    let t = Domain.DLS.get key in
    let sys, check = mk () in
    let check' () =
      check ();
      if t.edges land (tick_edges - 1) = 0 then Calib.tick t.cal;
      t.edges <- t.edges + 1
    in
    (sys, check')
  in
  (mk', fun () -> !cals)

(* One checked exploration, timed against the reference. *)
let timed inp =
  let mk, cals = with_reference inp.mk in
  let (), wall = Util.time (fun () -> ignore (run ~mk inp)) in
  Calib.correct (cals ()) ~domains:inp.spec.domains ~wall

(* The repeats of one part; every one must reproduce the pinned stats. *)
let measure ?first ~budget ~min_runs inp = Util.repeat ?first ~budget ~min_runs (fun () -> timed inp)

(* --- per-call costs (Bechamel) --- *)

type costs = {
  step_ns : float;  (** one simulator step, journaling included *)
  rollback_ns : float;  (** one mark + rollback, continuation rebuild included *)
  fingerprint_ns : float;  (** [Sim.fingerprint_digest] after one step *)
  add_ns : float;  (** [Visited.add] on a stream with the workload's hit ratio *)
}

let choices t ~max_crashes crashes_used =
  let n = Sim.num_procs t in
  List.concat
    (List.init n (fun i ->
         if Sim.finished t i then []
         else if crashes_used < max_crashes && Sim.started t i then
           [ E.Step_choice i; E.Crash_choice i ]
         else [ E.Step_choice i ]))

(* A random root-to-leaf path of the workload's schedule tree. *)
let random_path rng t ~max_crashes =
  let rec go crashes acc =
    match choices t ~max_crashes crashes with
    | [] -> List.rev acc
    | cs ->
        let c = List.nth cs (Random.State.int rng (List.length cs)) in
        E.apply_choice t c;
        go (match c with E.Crash_choice _ -> crashes + 1 | E.Step_choice _ -> crashes) (c :: acc)
  in
  go 0 []

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l
let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let with_arena a f =
  Heap.activate a;
  Fun.protect ~finally:Heap.deactivate f

let samples = 4
let continuation = 8
let apply t cs = List.iter (E.apply_choice t) cs

(* Bechamel cost of one mark / [k] choices / rollback cycle on [t]. *)
let cycle name ~wrap ?(extra = ignore) t cs k =
  Percall.ns name (fun () ->
      wrap (fun () ->
          let m = Sim.mark t in
          apply t (take k cs);
          extra t;
          Sim.rollback t m))

(* Random states of [t]'s schedule tree, each with a short
   continuation: a prefix cut at a random point of the deeper two
   thirds of a random root-to-leaf path, so sampled states have the
   depth profile of the tree's nodes.  [t] is left at [root]. *)
let sample_states rng t ~root ~wrap ~crashes =
  List.init samples (fun _ ->
      let path = wrap (fun () -> random_path rng t ~max_crashes:crashes) in
      Sim.rollback t root;
      let len = List.length path in
      let lo = len / 3 in
      let split = lo + Random.State.int rng (max 1 (len - 1 - lo)) in
      let cont = take continuation (drop split path) in
      if List.length cont < 2 then Util.fail "explore probe: path of length %d is too short" len;
      (take split path, cont))

(* Mean step and rollback cost over the sampled states: one cycle of 1
   and of k choices give rollback + step and rollback + k steps. *)
let edge_costs ~wrap t ~root states =
  let one (prefix, cont) =
    let k = List.length cont in
    wrap (fun () -> apply t prefix);
    let t1 = cycle "edge1" ~wrap t cont 1 and tk = cycle "edgek" ~wrap t cont k in
    Sim.rollback t root;
    let step = (tk -. t1) /. float_of_int (k - 1) in
    (step, t1 -. step)
  in
  let rs = List.map one states in
  let mean f = Util.sum (List.map f rs) /. float_of_int (List.length rs) in
  (Float.max 0. (mean fst), Float.max 0. (mean snd))

(* The walker's own cost per edge (choice enumeration, bookkeeping,
   garbage collection), from an exhaustive exploration of [n] processes
   whose steps do nothing: its wall time minus its steps and rollbacks
   at their measured costs, per edge. *)
let walker_ns rng ~n ~crashes =
  let mk m () =
    (Sim.create ~n (fun _ () -> for _ = 1 to m do Sim.step (fun () -> ()) done), fun () -> ())
  in
  let explore m = E.explore ~max_crashes:crashes ~undo:true ~max_nodes:5_000_000 ~mk:(mk m) () in
  let rec pick m = if m >= 64 || (explore m).E.nodes >= 100_000 then m else pick (m + 1) in
  let m = pick 1 in
  let tel0 = Tel.snapshot () in
  let walls = List.init 3 (fun _ -> snd (Util.time (fun () -> explore m))) in
  let restores = float_of_int (Tel.diff (Tel.snapshot ()) tel0).Tel.restores /. 3. in
  let nodes = float_of_int (explore m).E.nodes in
  let step, rollback =
    Undo.install ();
    Fun.protect ~finally:Undo.uninstall @@ fun () ->
    let t = fst (mk m ()) in
    let root = Sim.mark t in
    let wrap f = f () in
    let r = edge_costs ~wrap t ~root (sample_states rng t ~root ~wrap ~crashes) in
    Sim.abandon t;
    r
  in
  Float.max 0. (((Util.median walls *. 1e9) -. (nodes *. step) -. (restores *. rollback)) /. nodes)

let probe inp =
  let s = inp.spec in
  let rng = Random.State.make [| 2022 |] in
  let saved_arena = Heap.current () in
  let restore_arena () =
    match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ()
  in
  let step_ns, rollback_ns, fingerprint_ns =
    Undo.install ();
    Fun.protect
      ~finally:(fun () ->
        Undo.uninstall ();
        restore_arena ())
    @@ fun () ->
    (* The walker's system (under an arena iff the workload dedups)
       and a fingerprinting twin under its own arena.  One journal
       serves both, so only one of them holds entries above the shared
       root mark at a time. *)
    let plain_arena = if s.dedup then Some (Heap.create ()) else None in
    let wrap_plain f = match plain_arena with Some a -> with_arena a f | None -> f () in
    Heap.deactivate ();
    let plain = fst (wrap_plain inp.mk) in
    let twin_arena = Heap.create () in
    let wrap_twin f = with_arena twin_arena f in
    let twin = fst (wrap_twin inp.mk) in
    let root_p = Sim.mark plain and root_t = Sim.mark twin in
    let states = sample_states rng plain ~root:root_p ~wrap:wrap_plain ~crashes:s.crashes in
    let step, rollback = edge_costs ~wrap:wrap_plain plain ~root:root_p states in
    let fp (prefix, cont) =
      wrap_twin (fun () -> apply twin prefix);
      let a1 = cycle "arena-edge1" ~wrap:wrap_twin twin cont 1 in
      let f1 =
        cycle "arena-edge1-fp" ~wrap:wrap_twin
          ~extra:(fun t -> ignore (Sim.fingerprint_digest t))
          twin cont 1
      in
      Sim.rollback twin root_t;
      f1 -. a1
    in
    let fps = List.map fp states in
    Sim.abandon plain;
    Sim.abandon twin;
    (step, rollback, Float.max 0. (Util.sum fps /. float_of_int samples))
  in
  let distinct_ratio =
    if s.dedup then float_of_int s.pin.E.distinct_states /. float_of_int s.pin.E.nodes
    else float_of_int dedup.pin.E.distinct_states /. float_of_int dedup.pin.E.nodes
  in
  let add_ns =
    let len = 1 lsl 18 in
    let ids = Array.init len (fun i -> int_of_float (float_of_int i *. distinct_ratio)) in
    for i = len - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = ids.(i) in
      ids.(i) <- ids.(j);
      ids.(j) <- x
    done;
    let keys = Array.map (fun id -> Digest.string (string_of_int id)) ids in
    let v = Visited.create () in
    let i = ref 0 in
    Percall.ns "visited.add" (fun () ->
        if !i = len then begin
          i := 0;
          Visited.clear v
        end;
        ignore (Visited.add v keys.(!i));
        incr i)
  in
  {
    step_ns;
    rollback_ns;
    fingerprint_ns;
    add_ns;
  }

let min_costs a b =
  {
    step_ns = Float.min a.step_ns b.step_ns;
    rollback_ns = Float.min a.rollback_ns b.rollback_ns;
    fingerprint_ns = Float.min a.fingerprint_ns b.fingerprint_ns;
    add_ns = Float.min a.add_ns b.add_ns;
  }

(* --- traced --- *)

type acc = {
  mutable checks : int;
  mutable check_s : float;
  mutable built : int;
  mutable build_s : float;
}

(* Wrap [mk] and the checker it returns in clock reads.  Each domain
   accumulates into its own record (a system never leaves the domain
   that built it); [totals] sums them once the walkers have joined. *)
let wrap mk =
  let accs = ref [] and lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let a = { checks = 0; check_s = 0.; built = 0; build_s = 0. } in
        Mutex.protect lock (fun () -> accs := a :: !accs);
        a)
  in
  let mk' () =
    let a = Domain.DLS.get key in
    let t0 = Util.now () in
    let sys, check = mk () in
    a.built <- a.built + 1;
    a.build_s <- a.build_s +. (Util.now () -. t0);
    let check' () =
      let t0 = Util.now () in
      match check () with
      | () ->
          a.checks <- a.checks + 1;
          a.check_s <- a.check_s +. (Util.now () -. t0)
      | exception e ->
          a.checks <- a.checks + 1;
          a.check_s <- a.check_s +. (Util.now () -. t0);
          raise e
    in
    (sys, check')
  in
  let totals () =
    List.fold_left
      (fun (c, cs, b, bs) a -> (c + a.checks, cs +. a.check_s, b + a.built, bs +. a.build_s))
      (0, 0., 0, 0.) !accs
  in
  (mk', totals)

type traced = {
  t_stats : E.stats;
  costs : costs;
  wall_untraced : float;  (** 1 domain *)
  wall_traced : float;  (** 1 domain *)
  tel : Tel.snapshot;  (** counters of a traced run *)
  pool : Tel.snapshot;  (** counters of a 2-domain run *)
  pool_built : int;  (** systems a 2-domain run built: frontier handoffs *)
  walk_ns : float;  (** the walker's own work per edge *)
  checks : int;
  check_s : float;  (** clock bias removed *)
  built : int;
  build_s : float;
  clock_s : float;  (** what the wrapper's clock reads cost in total *)
  speedup_2d : float;
}

(* The decomposition is made at 1 domain, where busy time is wall time
   and costs measured on one core apply.  Per-call costs are the lesser
   of two probes, one before the runs and one after, so a probe that
   met interference from other tenants does not count.  The pool's
   counters, the frontier-handoff count and the speedup come from an
   untraced run at 2 domains. *)
let traced inp =
  let first = probe inp in
  let inside_ns, wrapper_ns = Percall.clock_cost () in
  let untraced domains =
    let built = Atomic.make 0 in
    let mk () =
      Atomic.incr built;
      inp.mk ()
    in
    Gc.compact ();
    let tel0 = Tel.snapshot () in
    let (), wall = Util.time (fun () -> ignore (run ~domains ~mk inp)) in
    (wall, Tel.diff (Tel.snapshot ()) tel0, Atomic.get built)
  in
  let wall1, _, _ = untraced 1 in
  let mk, totals = wrap inp.mk in
  Gc.compact ();
  let tel0 = Tel.snapshot () in
  let (), wall_traced = Util.time (fun () -> ignore (run ~domains:1 ~mk inp)) in
  let tel = Tel.diff (Tel.snapshot ()) tel0 in
  let checks, check_s, built, build_s = totals () in
  let wall2, pool, pool_built = untraced 2 in
  let costs = min_costs first (probe inp) in
  let walk_ns = walker_ns (Random.State.make [| 2022 |]) ~n:inp.spec.level ~crashes:inp.spec.crashes in
  let calls = float_of_int (checks + built) in
  let bias n = float_of_int n *. inside_ns *. 1e-9 in
  {
    t_stats = inp.spec.pin;
    costs;
    walk_ns;
    wall_untraced = wall1;
    wall_traced;
    tel;
    pool;
    pool_built;
    checks;
    check_s = Float.max 0. (check_s -. bias checks);
    built;
    build_s = Float.max 0. (build_s -. bias built);
    clock_s = calls *. wrapper_ns *. 1e-9;
    speedup_2d = wall1 /. wall2;
  }

(* Layer times of the traced run, in seconds: counts times per-call
   costs, plus the self times measured around [mk] and the checker.  The
   wrapper's own clock cost is not a layer; it is taken off the busy
   time before the residual is formed. *)
let layers tr =
  let nodes = float_of_int tr.t_stats.E.nodes in
  let fingerprints = if tr.t_stats.E.distinct_states > 0 then nodes +. 1. else 0. in
  let ns x = x *. 1e-9 in
  [
    ("sim.step", nodes *. ns tr.costs.step_ns);
    ("undo.rollback", float_of_int tr.tel.Tel.restores *. ns tr.costs.rollback_ns);
    ("heap.fingerprint", fingerprints *. ns tr.costs.fingerprint_ns);
    ("visited.add", fingerprints *. ns tr.costs.add_ns);
    ("check.invariant", tr.check_s);
    ("explore.build", tr.build_s);
    ("explore.walk", nodes *. ns tr.walk_ns);
  ]

let explained tr = Util.sum (List.map snd (layers tr))
let untraced_busy tr = tr.wall_traced -. tr.clock_s

let metrics ~main tr =
  let open Util in
  let st = tr.t_stats and tel = tr.tel and c = tr.costs in
  let rehashes = tel.Tel.rehashes_full + tel.Tel.rehashes_saved in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  (if main then [ m "sim.step_ns" "ns" c.step_ns ] else [])
  @ [
      m "undo.restores" "count" (float_of_int tel.Tel.restores);
      m "undo.entries" "count" (float_of_int tel.Tel.undo_entries);
      m "undo.rollback_ns" "ns" c.rollback_ns;
      m "undo.bytes_peak" "bytes" (float_of_int tel.Tel.undo_bytes_peak);
      m "heap.fingerprint_ns" "ns" c.fingerprint_ns;
      m "heap.rehashes_full" "count" (float_of_int tel.Tel.rehashes_full);
      m "heap.rehashes_saved" "count" (float_of_int tel.Tel.rehashes_saved);
      m "heap.rehash_saved_ratio" "ratio" (ratio tel.Tel.rehashes_saved rehashes);
      m "check.invariant_calls" "count" (float_of_int tr.checks);
      m "check.invariant_s" "s" tr.check_s;
      m "explore.systems_built" "count" (float_of_int tr.pool_built);
      m "explore.walk_ns" "ns" tr.walk_ns;
      m "explore.busy_s" "s" tr.wall_traced;
      m "explore.unexplained_s" "s" (untraced_busy tr -. explained tr);
      m "explore.explained_ratio" "ratio" (explained tr /. untraced_busy tr);
      m "visited.add_ns" "ns" c.add_ns;
      m "visited.claims" "count" (float_of_int st.E.distinct_states);
      m "visited.hit_ratio" "ratio" (ratio st.E.dedup_hits st.E.nodes);
      m "pool.jobs" "count" (float_of_int tr.pool.Tel.jobs);
      m "pool.chunks" "count" (float_of_int tr.pool.Tel.chunks);
      m "pool.steals" "count" (float_of_int tr.pool.Tel.steals);
      m "pool.seq_cutoffs" "count" (float_of_int tr.pool.Tel.seq_cutoffs);
      m "pool.speedup_2d" "x" tr.speedup_2d;
    ]
