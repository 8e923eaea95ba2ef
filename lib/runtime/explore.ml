(* Bounded exhaustive schedule exploration ("stateless model checking").

   The explorer enumerates every schedule of a freshly created system --
   each point chooses either a step of an unfinished process or a crash of
   a started, unfinished process (bounded by [max_crashes]) -- and runs a
   user invariant after every choice.  Process bodies must be
   deterministic.

   Backtracking: one DFS walker serves every mode.  It drives ONE live
   system down the tree and, after a child subtree has moved that system,
   returns it to the node's state with a backtracking strategy:

   - [Restore] (the default): every mutation the simulator performs while
     an {!Undo} journal is installed pushes an inverse closure;
     [Sim.mark] records the journal length before the child and
     [Sim.rollback] pops back to it, rebuilding the one-shot continuations
     by value-feeding (see sim.ml).  A sibling costs O(steps since the
     fork point), and the heap fingerprint on the dedup path is recomputed
     only for containers written since the last hash (see heap.ml).
   - [Rebuild] (the oracle behind [?undo:false] / [--no-undo]): abandon
     the system and re-execute the node's prefix from the root on a fresh
     one -- O(depth) per sibling, but independent of the journal, so both
     strategies must produce byte-identical statistics, violations and
     checkpoints in every mode (test_parallel.ml pins it).

   Both elide the last child's backtrack: nothing reads the system between
   the final child's return and the enclosing backtrack (the parent's own,
   or the walk's end), so that one restores both levels at once.  A chain
   of returns out of a deep leftmost subtree then costs ONE continuation
   rebuild (or one re-execution) instead of one per level.

   Pruning: crashing a process that has not taken a step since its last
   (re)start is a no-op in the model (it would restart at the beginning,
   where it already is), so such choices are skipped; this also prevents
   consecutive duplicate crashes.

   Deduplication ([dedup = true]): two schedules that reach the same
   global state -- same non-volatile heap (via [Heap] arenas and
   [Sim.fingerprint]) and same per-process control state -- have identical
   futures, so the schedule tree is explored as a state graph: a lock-free
   concurrent visited set ([Rcons_par.Visited]) claims each fingerprint
   exactly once, the claimant expands the state's children, and every
   later encounter is counted as a dedup hit and pruned.  Because the
   fingerprint includes cumulative per-process step/crash counts, the
   state graph is graded by depth, so the set of expanded states and
   walked edges -- and therefore every statistic -- is independent of
   visit order and of the domain count.  Statistics change meaning under
   dedup ([nodes] counts state-graph edges, not tree edges), which is why
   it is off by default: raw counts are what the paper-facing tables use.

   Partial-order reduction ([por = true]): every shared-memory access
   declares a step footprint, which yields a sound independence relation
   over choices (see [Rcons_spec.Footprint]).  Crashes never commute
   with their victim's steps; two crashes of distinct processes commute
   when at least two crash credits remain (each reverts only its own
   victim's lines); a crash commutes with another process's step only
   under the eager persistency model (a lossy cache makes the crash
   revert shared lines the step may read).  The walker then runs the
   classic sleep-set algorithm: a choice in the node's sleep set starts
   a subtree that differs from an already-explored sibling subtree only
   by swaps of adjacent independent transitions, so it is skipped and
   counted in [por_pruned].  Sleep sets prune *interleavings*, never
   *states*: every reachable state is still visited by some schedule,
   and the invariants here are state properties (output agreement and
   validity), so a reduced run finds a violation iff the raw run does.
   With [dedup] the fingerprint switches to the ungraded form (total
   crashes only -- see [Sim.fingerprint_digest ~graded:false]) so that
   states differing only in a discarded pre-crash prefix collapse, and
   the visited store records the sleep mask and depth each state was
   expanded under, pruning a revisit only when a previous expansion used
   a subset sleep mask at no greater depth (re-expanding otherwise,
   after Godefroid--Holzmann--Pirottin); the combination stays sound but
   its statistics are visit-order dependent, so por + dedup is
   sequential only and not resumable.  Raw por composes with the
   parallel walkers: frontier items carry their sleep sets into phase 2,
   and the phase split does not change which subtrees are explored, so
   parallel reduced runs report the sequential reduced statistics.

   Symmetry reduction ([symmetry = classes]): states that differ only by
   a relabeling of interchangeable processes -- same code, same input;
   the *caller* asserts interchangeability by listing the pid classes --
   share a canonical fingerprint ([Sim.fingerprint_digest_canonical]),
   so the deduplicating explorer expands one representative per orbit.
   [symmetry_hits] counts expanded-edge targets whose canonical digest
   beat the identity labeling.  Every schedule actually walked remains a
   concrete one, so violation replay needs no unwinding.

   Parallel mode ([domains > 1]): the tree is walked sequentially down to
   [frontier_depth] (phase 1); the nodes of that frontier -- in DFS order,
   which with the fixed choice ordering is lexicographic order on
   schedules -- are then distributed across OCaml 5 domains (phase 2).
   Journals and continuations are domain-local, so a frontier item is
   handed over as its (prefix, crashes, sleep set): the receiving walker
   re-executes the prefix once on a fresh system built by [mk], then runs
   the chosen strategy below it.  In raw mode per-subtree statistics are
   merged in frontier order, and if any subtree finds a violation the one
   with the smallest frontier index wins (an atomic watermark cancels
   subtrees that can no longer win), so the schedule reported is exactly
   the one the sequential DFS would have raised first: results of
   completed explorations are bit-identical to the sequential path.  With
   [dedup = true] the walkers instead share the visited set (their
   statistics are order-independent, see above); if any walker finds a
   violation the run falls back to one sequential deduplicating pass,
   whose first violation is deterministic -- so seq and par dedup runs
   report identical stats and identical violation schedules, though the
   dedup violation schedule may differ from the raw-mode one.  Symmetry
   reduction is sequential only: which member of an orbit is expanded
   decides which edge targets beat their identity labeling, so
   [symmetry_hits] would depend on the race between walkers.

   Budgets ([node_budget] / [time_budget], sequential mode only): instead
   of losing an interrupted exhaustive run, the explorer raises
   [Interrupted] with a serializable checkpoint -- the DFS cursor (the
   schedule prefix of the first uncounted node), the statistics
   accumulated so far, and (under dedup) the visited-set contents.
   Resuming from the checkpoint re-descends the cursor spine without
   re-counting it, skips the fully-explored subtrees to its left, and
   continues the DFS exactly where it stopped, so the final statistics
   are bit-identical to an uninterrupted run.  The checkpoint names the
   workload it was cut from ([fingerprint]); resuming it under another
   workload is refused, since the cursor and counts would silently
   describe a different tree. *)

type choice = Schedule.choice = Step_choice of int | Crash_choice of int

let pp_choice = Schedule.pp_choice
let pp_schedule = Schedule.pp

type violation = {
  v_msg : string;
  v_schedule : choice list;
  v_provenance : Schedule.provenance option;
      (* None only transiently, inside [explore]: the boundary wrapper
         attaches the run's provenance before the exception escapes. *)
}

exception Violation of violation

let violation msg prefix = Violation { v_msg = msg; v_schedule = List.rev prefix; v_provenance = None }

type stats = {
  schedules : int;
  nodes : int;
  max_depth : int;
  dedup_hits : int; (* 0 unless [dedup] *)
  distinct_states : int; (* 0 unless [dedup] *)
  por_pruned : int; (* 0 unless [por] *)
  symmetry_hits : int; (* 0 unless [symmetry] *)
}

let apply_choice = Schedule.apply

(* [mk ()] must build a fresh system together with an invariant checker;
   the checker raises [Violation_found msg] (via [fail]) on a property
   violation.  It is run after every choice, so violations are reported at
   the earliest point they are observable. *)
exception Violation_found of string

let fail msg = raise (Violation_found msg)

exception Budget_exceeded of stats
(* Raised when the exploration tree exceeds [max_nodes]; callers choose
   bounds so that this does not happen in CI, but a runaway configuration
   fails fast instead of hanging. *)

(* A resumable cut of an interrupted sequential exploration. *)
type checkpoint = {
  cp_cursor : choice list; (* schedule prefix of the first uncounted node *)
  cp_stats : stats; (* totals accumulated strictly before the cursor *)
  cp_visited : string list; (* claimed fingerprints (raw digests); [] unless dedup *)
  cp_max_crashes : int;
  cp_max_steps : int;
  cp_dedup : bool;
  cp_por : bool; (* recorded so a resume attempt fails loudly *)
  cp_engine : string; (* "undo" | "replay": which strategy took the cut *)
  cp_workload : string option; (* the run's [?fingerprint], if it had one *)
}

exception Interrupted of checkpoint

let checkpoint_stats cp = cp.cp_stats
let checkpoint_cursor cp = cp.cp_cursor

(* The checkpoint format this build writes and reads. *)
let checkpoint_version = 1

let checkpoint_to_json cp =
  Json.Obj
    ([
      ("version", Json.Int checkpoint_version);
      ("kind", Json.String "explore-checkpoint");
      ("max_crashes", Json.Int cp.cp_max_crashes);
      ("max_steps", Json.Int cp.cp_max_steps);
      ("dedup", Json.Bool cp.cp_dedup);
      ("por", Json.Bool cp.cp_por);
      ("engine", Json.String cp.cp_engine);
    ]
    @ (match cp.cp_workload with Some f -> [ ("workload", Json.String f) ] | None -> [])
    @ [
      ( "stats",
        Json.Obj
          [
            ("schedules", Json.Int cp.cp_stats.schedules);
            ("nodes", Json.Int cp.cp_stats.nodes);
            ("max_depth", Json.Int cp.cp_stats.max_depth);
            ("dedup_hits", Json.Int cp.cp_stats.dedup_hits);
            ("distinct_states", Json.Int cp.cp_stats.distinct_states);
            ("por_pruned", Json.Int cp.cp_stats.por_pruned);
            ("symmetry_hits", Json.Int cp.cp_stats.symmetry_hits);
          ] );
      ("cursor", Schedule.to_json cp.cp_cursor);
      ("visited", Json.List (List.map (fun d -> Json.String (Digest.to_hex d)) cp.cp_visited));
    ])

let checkpoint_of_json j =
  Json.require_version ~what:"checkpoint" checkpoint_version j;
  if (match Json.member "kind" j with Some (Json.String "explore-checkpoint") -> false | _ -> true)
  then invalid_arg "Explore.checkpoint_of_json: not an explore checkpoint";
  let stats = Json.field "stats" j in
  let int k v = Json.get k Json.to_int v in
  (* Fields added after the v1 format default when absent, so pre-reduction
     checkpoints stay loadable. *)
  let opt_int k v = match Json.member k v with Some x -> Json.to_int ~field:k x | None -> 0 in
  let cp =
    {
      cp_cursor = Schedule.of_json ~field:"cursor" (Json.field "cursor" j);
      cp_stats =
        {
          schedules = int "schedules" stats;
          nodes = int "nodes" stats;
          max_depth = int "max_depth" stats;
          dedup_hits = int "dedup_hits" stats;
          distinct_states = int "distinct_states" stats;
          por_pruned = opt_int "por_pruned" stats;
          symmetry_hits = opt_int "symmetry_hits" stats;
        };
      cp_visited =
        List.map
          (fun s -> Digest.from_hex (Json.to_str ~field:"visited" s))
          (Json.get "visited" Json.to_list j);
      cp_max_crashes = int "max_crashes" j;
      cp_max_steps = int "max_steps" j;
      cp_dedup = Json.get "dedup" Json.to_bool j;
      cp_por = (match Json.member "por" j with Some b -> Json.to_bool ~field:"por" b | None -> false);
      cp_engine =
        (* Either strategy may resume either cut -- the cursor format is
           strategy-independent -- but a checkpoint claiming an engine
           this build does not know is from the future, and its cursor may
           mean something else: refuse it rather than misresume. *)
        (match Json.member "engine" j with
        | None -> "replay" (* pre-undo checkpoints *)
        | Some (Json.String ("undo" as e)) | Some (Json.String ("replay" as e)) -> e
        | Some (Json.String e) ->
            invalid_arg ("Explore.checkpoint_of_json: unknown exploration engine " ^ e)
        | Some _ -> invalid_arg "Explore.checkpoint_of_json: engine must be a string");
      cp_workload =
        (match Json.member "workload" j with
        | None -> None (* checkpoints cut before workloads were recorded *)
        | Some (Json.String f) -> Some f
        | Some _ -> invalid_arg "Explore.checkpoint_of_json: workload must be a string");
    }
  in
  (* A resumable dedup checkpoint lists exactly the states its stats
     count: a cut or padded list would resume to wrong totals. *)
  if cp.cp_dedup && not cp.cp_por then begin
    let listed = List.length cp.cp_visited in
    if listed <> cp.cp_stats.distinct_states then
      invalid_arg
        (Printf.sprintf
           "Explore.checkpoint_of_json: visited lists %d states but stats.distinct_states is %d"
           listed cp.cp_stats.distinct_states);
    let seen = Hashtbl.create listed in
    List.iter
      (fun d ->
        if Hashtbl.mem seen d then
          invalid_arg
            ("Explore.checkpoint_of_json: visited lists state " ^ Digest.to_hex d ^ " twice");
        Hashtbl.add seen d ())
      cp.cp_visited
  end;
  cp

let save_checkpoint ~file cp =
  (* Write-temp-then-rename (the [Cert_cache] convention): a crash --
     of the host process this time, not a simulated one -- while the
     checkpoint is being written must never leave a truncated file
     where [--resume] expects a valid one.  The rename is atomic on
     POSIX, so the file is either the complete old checkpoint or the
     complete new one. *)
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (Json.to_string (checkpoint_to_json cp));
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file

let load_checkpoint ~file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  checkpoint_of_json (Json.parse_exn s)

(* Per-walker statistics; one per frontier subtree in parallel mode,
   summed at the end. *)
type counter = {
  mutable c_schedules : int;
  mutable c_nodes : int;
  mutable c_max_depth : int;
  mutable c_dedup_hits : int;
  mutable c_por_pruned : int;
  mutable c_symmetry_hits : int;
}

let fresh_counter () =
  {
    c_schedules = 0;
    c_nodes = 0;
    c_max_depth = 0;
    c_dedup_hits = 0;
    c_por_pruned = 0;
    c_symmetry_hits = 0;
  }

let add_counter acc c =
  acc.c_schedules <- acc.c_schedules + c.c_schedules;
  acc.c_nodes <- acc.c_nodes + c.c_nodes;
  acc.c_max_depth <- max acc.c_max_depth c.c_max_depth;
  acc.c_dedup_hits <- acc.c_dedup_hits + c.c_dedup_hits;
  acc.c_por_pruned <- acc.c_por_pruned + c.c_por_pruned;
  acc.c_symmetry_hits <- acc.c_symmetry_hits + c.c_symmetry_hits

let counter_of_stats s =
  {
    c_schedules = s.schedules;
    c_nodes = s.nodes;
    c_max_depth = s.max_depth;
    c_dedup_hits = s.dedup_hits;
    c_por_pruned = s.por_pruned;
    c_symmetry_hits = s.symmetry_hits;
  }

(* Internal: pluggable visited-state store.  Graded dedup (and dedup +
   symmetry) uses the lock-free shared [Rcons_par.Visited] set; the
   por + dedup mode uses a sequential store keyed by ungraded
   fingerprint that remembers the (sleep mask, depth) pairs each state
   was expanded under.  [st_claim] returns whether the caller should
   expand the state (false = already covered). *)
type store = {
  st_claim : counter -> Sim.t -> mask:int -> depth:int -> bool;
  st_distinct : unit -> int;
  st_elements : unit -> string list;
}

exception Cancelled
(* Internal: a parallel subtree walker learned that its result can no
   longer matter (a smaller frontier index holds a violation in raw mode;
   any walker does in dedup mode). *)

exception Interrupt_at of choice list
(* Internal: a budget tripped at this (forward) cursor prefix; the
   explore entry point converts it into [Interrupted] with a checkpoint. *)

(* How the walker returns a node's system to the node's state once a
   child subtree has moved it (see the header). *)
type strategy = Restore | Rebuild

(* The walker's system: rolled back in place under [Restore], replaced
   by a freshly re-executed one under [Rebuild]. *)
type live = { mutable sys : Sim.t; mutable check : unit -> unit }

let explore ?(max_crashes = 1) ?(max_steps = 10_000) ?(max_nodes = 20_000_000) ?domains
    ?(frontier_depth = 4) ?(dedup = false) ?(por = false) ?symmetry ?node_budget ?time_budget
    ?resume_from ?fingerprint ?(undo = true) ~mk () =
  let strategy = if undo then Restore else Rebuild in
  let workers = Rcons_par.Pool.resolve_domains domains in
  let frontier_depth = max 1 frontier_depth in
  let budgeted = node_budget <> None || time_budget <> None in
  if (budgeted || resume_from <> None) && workers > 1 then
    invalid_arg "Explore.explore: budgets and resume require domains = 1";
  if por && dedup && workers > 1 then
    invalid_arg "Explore.explore: por + dedup is order-dependent and requires domains = 1";
  if symmetry <> None && not dedup then
    invalid_arg "Explore.explore: symmetry reduction requires dedup";
  if symmetry <> None && workers > 1 then
    invalid_arg "Explore.explore: symmetry reduction is order-dependent and requires domains = 1";
  (match resume_from with
  | Some cp ->
      if por then
        invalid_arg "Explore.explore: resume with por is unsupported (reduced runs are not resumable)";
      if symmetry <> None then
        invalid_arg "Explore.explore: resume with symmetry is unsupported";
      if cp.cp_por then
        invalid_arg "Explore.explore: checkpoint was taken with por; reduced runs are not resumable";
      if cp.cp_max_crashes <> max_crashes || cp.cp_max_steps <> max_steps || cp.cp_dedup <> dedup
      then
        invalid_arg
          (Printf.sprintf
             "Explore.explore: checkpoint was taken with max_crashes=%d max_steps=%d dedup=%b"
             cp.cp_max_crashes cp.cp_max_steps cp.cp_dedup);
      (* A checkpoint that names its workload resumes only that one;
         unnamed (older) checkpoints resume anywhere, as before. *)
      (match cp.cp_workload with
      | Some w when Some w <> fingerprint ->
          invalid_arg
            (Printf.sprintf "Explore.explore: checkpoint was taken on workload %s, not %s" w
               (Option.value fingerprint ~default:"(unnamed)"))
      | _ -> ())
  | None -> ());
  let start_time = if time_budget = None then 0. else Unix.gettimeofday () in
  (* Budgets bound the work of THIS invocation, not of the whole
     (possibly many-times-resumed) exploration: a resumed run starts its
     node allowance afresh above the checkpoint's counters, so chaining
     [explore ~node_budget ~resume_from] makes steady progress. *)
  let base_nodes = match resume_from with Some cp -> cp.cp_stats.nodes | None -> 0 in
  (* The node budget is shared across every domain so that parallel runs
     respect the same global bound as sequential ones. *)
  let nodes_total = Atomic.make 0 in
  (* The ambient persistency policy, captured here so worker domains
     (whose domain-local slots start empty) build their systems under the
     same policy as the main domain. *)
  let persist_cfg =
    match Persist.current () with
    | Some c -> Some (Persist.policy c, Persist.flush_cost c)
    | None -> None
  in
  (* Under the eager model a crash touches only its victim's control
     state, so it commutes with other processes' steps; a lossy cache
     makes it revert shared lines, which those steps may read. *)
  let eager_model =
    match persist_cfg with None | Some (Persist.Eager, _) -> true | Some _ -> false
  in
  (* A process body may raise (e.g. an algorithm hitting an assertion
     because a crash reverted an un-flushed write under a lossy cache);
     that is a property violation with a schedule, not an explorer
     error.  [prefix] is most-recent-first, as [violation] expects. *)
  let guarded_apply t c prefix =
    match apply_choice t c with
    | () -> ()
    | exception ((Invalid_argument m | Failure m) as e) ->
        (* Distinguish harness bugs from algorithm failures: our own
           defensive checks name their [Sim.]/[Schedule.] entry point. *)
        if String.starts_with ~prefix:"Sim." m || String.starts_with ~prefix:"Schedule." m
        then raise e
        else begin
          Sim.abandon t;
          raise (violation ("uncaught exception in process body: " ^ m) prefix)
        end
  in
  let replay prefix =
    (* Fingerprinting needs every system under its own arena; the arena
       stays active while the system runs so that lazily created objects
       keep registering (the explorer runs one system at a time per
       domain).  The arena active before [explore] is restored on exit.
       Likewise every system gets a fresh write-back cache of the ambient
       policy: lines are per-system state.  Object ids restart at zero so
       footprints are comparable across replays of the same prefix. *)
    Rcons_spec.Footprint.reset_oids ();
    if dedup then Heap.activate (Heap.create ());
    (match persist_cfg with
    | Some (p, fc) -> Persist.activate (Persist.create ~flush_cost:fc p)
    | None -> ());
    let t, check = mk () in
    let applied = ref [] in
    List.iter
      (fun c ->
        applied := c :: !applied;
        guarded_apply t c !applied;
        match check () with
        | () -> ()
        | exception Violation_found msg ->
            Sim.abandon t;
            raise (violation msg prefix))
      (List.rev prefix);
    (t, check)
  in
  (* The symmetry group is derived from the class list and the process
     count of the first system fingerprinted (symmetry runs on one
     domain). *)
  let perms_cache = ref None in
  let perms_for t =
    match !perms_cache with
    | Some ps -> ps
    | None ->
        let ps =
          Sim.relabelings
            ~classes:(match symmetry with Some c -> c | None -> assert false)
            (Sim.num_procs t)
        in
        perms_cache := Some ps;
        ps
  in
  (* por + dedup identifies states by the ungraded fingerprint: remaining
     crash budget is all a state's futures depend on, so the discarded
     prefixes of crashed runs collapse. *)
  let ungraded = por && dedup in
  let fp_of cnt t =
    match symmetry with
    | None -> Sim.fingerprint_digest ~graded:(not ungraded) t
    | Some _ ->
        let d, beat =
          Sim.fingerprint_digest_canonical ~graded:(not ungraded) ~perms:(perms_for t) t
        in
        if beat then cnt.c_symmetry_hits <- cnt.c_symmetry_hits + 1;
        d
  in
  let visited_store vset =
    {
      st_claim = (fun cnt t ~mask:_ ~depth:_ -> Rcons_par.Visited.add vset (fp_of cnt t));
      st_distinct = (fun () -> Rcons_par.Visited.cardinal vset);
      st_elements = (fun () -> Rcons_par.Visited.elements vset);
    }
  in
  (* The por + dedup store (GHP95): a revisit is covered only if a
     previous expansion of the same state used a subset sleep mask (it
     explored at least the transitions we would) at no greater depth
     (its subtree was not truncated earlier by [max_steps] than ours
     would be); otherwise the state is re-expanded and the new
     (mask, depth) recorded.  Sequential-only, so a plain Hashtbl. *)
  let masked_store () =
    let tbl : (string, (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
    {
      st_claim =
        (fun cnt t ~mask ~depth ->
          let fp = fp_of cnt t in
          let stored = Option.value (Hashtbl.find_opt tbl fp) ~default:[] in
          if List.exists (fun (m, d) -> m land mask = m && d <= depth) stored then false
          else begin
            Hashtbl.replace tbl fp ((mask, depth) :: stored);
            true
          end);
      st_distinct = (fun () -> Hashtbl.length tbl);
      st_elements = (fun () -> []);
    }
  in
  (* Sleep sets are bit masks over child positions (see [expand]): bit
     [2i] is a crash of process i, bit [2i + 1] a step of it. *)
  let indep fps crashes_used ju jc =
    let p = ju lsr 1 and q = jc lsr 1 in
    p <> q
    &&
    match (ju land 1, jc land 1) with
    | 1, 1 -> Rcons_spec.Footprint.independent fps.(p) fps.(q)
    | 0, 0 ->
        (* Swapping two crashes needs both executable in either order,
           i.e. two remaining crash credits. *)
        max_crashes - crashes_used >= 2
    | _ -> eager_model
  in
  (* The sleep set a child inherits: the members of [sleep] independent
     of the child's choice [jc]. *)
  let child_sleep fps crashes_used sleep jc =
    let s = ref 0 in
    for ju = 0 to (2 * Array.length fps) - 1 do
      if sleep land (1 lsl ju) <> 0 && indep fps crashes_used ju jc then s := !s lor (1 lsl ju)
    done;
    !s
  in
  let position = function Crash_choice i -> 2 * i | Step_choice i -> (2 * i) + 1 in
  let stats_of ?nodes store cnt =
    {
      schedules = cnt.c_schedules;
      nodes = Option.value nodes ~default:cnt.c_nodes;
      max_depth = cnt.c_max_depth;
      dedup_hits = cnt.c_dedup_hits;
      distinct_states = (match store with Some st -> st.st_distinct () | None -> 0);
      por_pruned = cnt.c_por_pruned;
      symmetry_hits = cnt.c_symmetry_hits;
    }
  in
  let over_budget cnt =
    (match node_budget with Some b -> cnt.c_nodes - base_nodes > b | None -> false)
    ||
    match time_budget with
    | Some tb -> cnt.c_nodes land 255 = 0 && Unix.gettimeofday () -. start_time > tb
    | None -> false
  in
  (* The DFS walker over the schedule tree (or, with [store], the state
     graph) below [prefix0].  It builds one live system positioned after
     [prefix0] (the cross-domain handoff re-executes a frontier prefix
     this way), moves it down into each child and backtracks with
     [strategy].  [stop_depth = Some d] turns nodes at depth d into
     frontier emissions instead of recursions (phase 1 of the parallel
     split); [cancelled] is polled at every node by parallel subtree
     walkers.  [resume] is the remaining cursor path of a checkpoint
     being resumed: its spine is re-descended without counting, subtrees
     to its left are skipped, and everything to its right runs normally.
     [sleep0] is the node's inherited sleep set (por mode; frontier items
     carry theirs into phase 2).

     Under [Restore] the journal is installed BEFORE the system is built,
     so every step value from the root on lands in the per-process vlogs
     that rollback feeds back; it is uninstalled -- flushing its
     telemetry -- when the walk ends.  The domain's fingerprint
     counters flush there too ([Heap.flush_telemetry]), under either
     strategy.  Exceptions unwind WITHOUT backtracking: the system is
     dead to this walk either way, and is abandoned however the walk
     exits. *)
  let walk ?stop_depth ?(emit = fun _ _ _ -> ()) ?(cancelled = fun () -> false) ?store
      ?(resume = []) ?(sleep0 = 0) cnt prefix0 depth0 crashes0 =
    let journal = strategy = Restore in
    if journal then Undo.install ();
    Fun.protect
      ~finally:(fun () ->
        if journal then Undo.uninstall ();
        Heap.flush_telemetry ())
    @@ fun () ->
    let t, check = replay prefix0 in
    let live = { sys = t; check } in
    Fun.protect ~finally:(fun () -> Sim.abandon live.sys) @@ fun () ->
    let root_mark = Sim.mark t in
    (* Apply [c] to the live system and run the invariant. *)
    let descend c prefix' =
      guarded_apply live.sys c prefix';
      try live.check () with Violation_found msg -> raise (violation msg prefix')
    in
    let rebuild prefix =
      Sim.abandon live.sys;
      let t, check = replay prefix in
      live.sys <- t;
      live.check <- check
    in
    (* The children of a node are the positions [j = 0 .. 2n-1] in
       order: [2i] crashes process i (if it has started, is unfinished
       and a crash credit is left), [2i + 1] steps it (if unfinished).
       Eligibility is read off the live system when the loop reaches
       [j]; every earlier sibling has been backtracked by then, so the
       system is at the node's state.  Only [last], the final eligible
       position, is found up front: its backtrack is elided. *)
    let n = Sim.num_procs t in
    let choice_at =
      Array.init (2 * n) (fun j -> if j land 1 = 0 then Crash_choice (j lsr 1) else Step_choice (j lsr 1))
    in
    let eligible t crashes_used j =
      let i = j lsr 1 in
      (not (Sim.finished t i)) && (j land 1 = 1 || (crashes_used < max_crashes && Sim.started t i))
    in
    (* Where the resume cursor enters this node: children before it were
       fully explored before the interrupt; the cursor spine itself was
       already counted and claimed. *)
    let resume_position t crashes_used c0 =
      let j = position c0 in
      if j < 0 || j >= 2 * n || not (eligible t crashes_used j) then
        invalid_arg
          "Explore.explore: resume cursor does not match this workload (different mk or \
           parameters?)";
      j
    in
    let rec expand prefix depth crashes_used resume sleep_in =
      let t = live.sys in
      let last = ref ((2 * n) - 1) in
      while !last >= 0 && not (eligible t crashes_used !last) do
        decr last
      done;
      let last = !last in
      if last < 0 then cnt.c_schedules <- cnt.c_schedules + 1 (* leaf; the system lives on *)
      else begin
        (* Footprints are read off the system at node entry, before any
           child moves it. *)
        let fps =
          if por then begin
            if n > 30 then invalid_arg "Explore.explore: por supports at most 30 processes";
            Array.init n (fun i ->
                match Sim.pending_footprint t i with
                | Some f -> f
                | None -> Rcons_spec.Footprint.Global)
          end
          else [||]
        in
        let first = match resume with [] -> 0 | c0 :: _ -> resume_position t crashes_used c0 in
        let resume_rest = match resume with [] -> [] | _ :: rest -> rest in
        let sleep = ref sleep_in in
        for j = first to last do
          if not (eligible live.sys crashes_used j) then ()
          else if por && !sleep land (1 lsl j) <> 0 then
            (* Asleep: a sibling subtree already covers every
               interleaving this child would start (modulo swaps of
               independent transitions). *)
            cnt.c_por_pruned <- cnt.c_por_pruned + 1
          else begin
            let c = choice_at.(j) in
            (* The journal extent before the child ([Rebuild] keeps no
               journal and ignores it); the last child's backtrack is
               elided, so it needs none. *)
            let m = if j < last then Sim.mark live.sys else root_mark in
            let depth' = depth + 1 in
            let prefix' = c :: prefix in
            let crashes' = if j land 1 = 0 then crashes_used + 1 else crashes_used in
            (* Whether the live system was moved into the child. *)
            let moved =
              if resume <> [] && j = first && resume_rest <> [] then begin
                (* Re-descend the checkpoint spine: counted and (in
                   dedup mode) claimed before the interrupt, so neither
                   is repeated. *)
                descend c prefix';
                expand prefix' depth' crashes' resume_rest 0;
                true
              end
              else begin
                cnt.c_nodes <- cnt.c_nodes + 1;
                let total = Atomic.fetch_and_add nodes_total 1 + 1 in
                if total > max_nodes then raise (Budget_exceeded (stats_of ~nodes:total store cnt));
                if budgeted && over_budget cnt then begin
                  (* Roll the uncounted-on-resume node back out of the
                     counters: the checkpoint's statistics are exactly
                     those of the explored region. *)
                  cnt.c_nodes <- cnt.c_nodes - 1;
                  raise (Interrupt_at (List.rev prefix'))
                end;
                if cancelled () then raise Cancelled;
                if depth' > max_steps then
                  raise (violation "step bound exceeded (wait-freedom?)" prefix');
                if depth' > cnt.c_max_depth then cnt.c_max_depth <- depth';
                let frontier = match stop_depth with Some d -> depth' >= d | None -> false in
                let child_sleep = if por then child_sleep fps crashes_used !sleep j else 0 in
                match store with
                | None ->
                    if frontier then begin
                      emit prefix' crashes' child_sleep;
                      false
                    end
                    else begin
                      descend c prefix';
                      expand prefix' depth' crashes' [] child_sleep;
                      true
                    end
                | Some st ->
                    (* Dedup mode: position the child even at the
                       frontier (its fingerprint must be claimed before
                       emission so phase 2 expands it exactly once). *)
                    descend c prefix';
                    if st.st_claim cnt live.sys ~mask:child_sleep ~depth:depth' then
                      if frontier then emit prefix' crashes' child_sleep
                      else expand prefix' depth' crashes' [] child_sleep
                    else cnt.c_dedup_hits <- cnt.c_dedup_hits + 1;
                    true
              end
            in
            (* Last-child elision: the last child leaves its backtrack to
               the enclosing one. *)
            if moved && j < last then begin
              match strategy with
              | Restore -> Sim.rollback live.sys m
              | Rebuild -> rebuild prefix
            end;
            (* The child's subtree is now fully covered (explored here,
               emitted for phase 2, or claimed earlier), so later
               siblings may sleep on it. *)
            if por then sleep := !sleep lor (1 lsl j)
          end
        done
      end
    in
    (* The root state is expanded, never reached through an edge, so it
       is claimed here (on a resumed run it already is, and the claim is
       a no-op). *)
    (match store with
    | Some st when depth0 = 0 -> ignore (st.st_claim cnt t ~mask:0 ~depth:0)
    | _ -> ());
    if cancelled () then raise Cancelled;
    if depth0 > max_steps then raise (violation "step bound exceeded (wait-freedom?)" prefix0);
    if depth0 > cnt.c_max_depth then cnt.c_max_depth <- depth0;
    match stop_depth with
    | Some d when depth0 >= d -> emit prefix0 crashes0 sleep0
    | _ -> expand prefix0 depth0 crashes0 resume sleep0
  in
  let new_store () =
    if not dedup then None
    else if por then Some (masked_store ())
    else begin
      let vset = Rcons_par.Visited.create () in
      (match resume_from with
      | Some cp -> List.iter (fun d -> ignore (Rcons_par.Visited.add vset d)) cp.cp_visited
      | None -> ());
      Some (visited_store vset)
    end
  in
  (* Sequential runs (plain and resumed): convert a budget trip into a
     self-describing checkpoint. *)
  let sequential () =
    let store = new_store () in
    let cnt, resume =
      match resume_from with
      | Some cp -> (counter_of_stats cp.cp_stats, cp.cp_cursor)
      | None -> (fresh_counter (), [])
    in
    match walk ?store ~resume cnt [] 0 0 with
    | () -> stats_of store cnt
    | exception Interrupt_at cursor ->
        raise
          (Interrupted
             {
               cp_cursor = cursor;
               cp_stats = stats_of store cnt;
               cp_visited = (match store with Some st -> st.st_elements () | None -> []);
               cp_max_crashes = max_crashes;
               cp_max_steps = max_steps;
               cp_dedup = dedup;
               cp_por = por;
               cp_engine = (match strategy with Restore -> "undo" | Rebuild -> "replay");
               cp_workload = fingerprint;
             })
  in
  (* Parallel runs.  Phase 1 walks the tree down to [frontier_depth],
     emitting the frontier; a phase-1 violation does NOT abort at once:
     in DFS order it comes after the complete subtrees of every frontier
     node emitted before it, one of which may hold the violation the
     sequential DFS would have reported first.  Phase 2 walks the
     frontier subtrees across domains.  The watermark [best] cancels
     subtrees whose result can no longer matter: in raw mode it is the
     smallest frontier index known to hold a violation, and the merge
     raises the first violation in frontier order (a phase-1 violation
     orders after all of them); in dedup mode any violation drops it to
     -1, cancelling everything, and the run falls back to one
     deterministic sequential dedup pass. *)
  let phase_split () =
    let store = new_store () in
    let cnt0 = fresh_counter () in
    let frontier_rev = ref [] in
    let emit prefix crashes sleep = frontier_rev := (prefix, crashes, sleep) :: !frontier_rev in
    let phase1 =
      match walk ~stop_depth:frontier_depth ~emit ?store cnt0 [] 0 0 with
      | () -> None
      | exception Violation v -> Some v
    in
    let frontier = Array.of_list (List.rev !frontier_rev) in
    let best = Atomic.make max_int in
    let rec lower i =
      let b = Atomic.get best in
      if i < b && not (Atomic.compare_and_set best b i) then lower i
    in
    let found i = lower (if dedup then -1 else i) in
    if dedup && phase1 <> None then found 0;
    let results =
      Rcons_par.Pool.map ~domains:workers (Array.length frontier) (fun i ->
          let cancelled () = Atomic.get best < i in
          if cancelled () then None
          else
            let prefix, crashes, sleep0 = frontier.(i) in
            let cnt = fresh_counter () in
            match walk ~cancelled ?store ~sleep0 cnt prefix frontier_depth crashes with
            | () -> Some (Ok cnt)
            | exception Cancelled -> None
            | exception Violation v ->
                found i;
                Some (Error v))
    in
    if dedup && Atomic.get best < max_int then sequential ()
    else begin
      Array.iter (function Some (Error v) -> raise (Violation v) | _ -> ()) results;
      Option.iter (fun v -> raise (Violation v)) phase1;
      Array.iter (function Some (Ok c) -> add_counter cnt0 c | _ -> ()) results;
      stats_of store cnt0
    end
  in
  let saved_arena = Heap.current () in
  let saved_cache = Persist.current () in
  let restore_arena () =
    (match saved_arena with Some a -> Heap.activate a | None -> Heap.deactivate ());
    Persist.restore saved_cache
  in
  let prov =
    {
      Schedule.origin = "explore";
      seed = None;
      params =
        ([
           ("max_crashes", string_of_int max_crashes);
           ("max_steps", string_of_int max_steps);
           ("dedup", string_of_bool dedup);
         ]
        @ (if por then [ ("por", "true") ] else [])
        @ (match symmetry with
          | None -> []
          | Some classes ->
              [
                ( "symmetry",
                  String.concat ""
                    (List.map
                       (fun cls ->
                         "[" ^ String.concat " " (List.map string_of_int cls) ^ "]")
                       classes) );
              ])
        @
        match persist_cfg with
        | None | Some (Persist.Eager, 1) -> []
        | Some (p, fc) ->
            [ ("persist", Persist.policy_to_string p); ("flush_cost", string_of_int fc) ]);
      fingerprint;
    }
  in
  let attach_provenance f =
    try f ()
    with Violation v when v.v_provenance = None ->
      raise (Violation { v with v_provenance = Some prov })
  in
  attach_provenance @@ fun () ->
  Fun.protect ~finally:restore_arena @@ fun () ->
  match resume_from with
  | Some cp when cp.cp_cursor = [] ->
      (* An empty cursor marks a checkpoint of a completed exploration:
         there is nothing to its right.  Resuming used to re-walk the
         whole tree on top of the checkpoint's totals; return them
         unchanged instead. *)
      cp.cp_stats
  | _ -> if workers <= 1 then sequential () else phase_split ()
