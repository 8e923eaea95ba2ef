(* A shared object of a given sequential type, living in the simulated
   non-volatile memory.  [apply] performs one update operation atomically
   (one step); [read] is the READ operation of readable types, returning
   the entire state without changing it.

   Persistency: like [Cell], the object acquires a cache line when a
   non-eager [Persist] cache is ambient at creation -- [state] is the
   volatile copy, [persisted] the durable one. *)

open Rcons_spec

type ('s, 'o, 'r) t = {
  mutable state : 's;
  mutable persisted : 's;
  mutable line : Persist.line option;
  mutable hslot : Heap.slot option; (* fingerprint-cache slot, if registered *)
  apply_spec : 's -> 'o -> 's * 'r;
  equal_state : 's -> 's -> bool;
  obj_name : string;
  oid : int; (* per-execution object id, for step footprints *)
  op_kind : 'o -> Footprint.kind; (* footprint classification of updates *)
}

(* Undo journaling mirrors [Cell]: state mutations push restore closures
   while a journal is recording, every restore re-dirties the
   fingerprint-cache slot, and the oid allocation rewinds with the
   journal so re-executed branches hand out identical ids. *)
let alloc ~equal_state ~apply ~name ?(op_kind = fun _ -> Footprint.Update) init =
  let t =
    {
      state = init;
      persisted = init;
      line = None;
      hslot = None;
      apply_spec = apply;
      equal_state;
      obj_name = name;
      oid = Footprint.fresh_oid ();
      op_kind;
    }
  in
  if Undo.recording () then begin
    let oid = t.oid in
    Undo.log (fun () -> Footprint.set_next_oid oid)
  end;
  t.line <-
    Persist.attach
      ~touch:(fun () -> Heap.touch t.hslot)
      ~persist:(fun () ->
        if Undo.recording () then begin
          let old = t.persisted in
          Undo.log (fun () ->
              t.persisted <- old;
              Heap.touch t.hslot)
        end;
        t.persisted <- t.state;
        Heap.touch t.hslot)
      ~revert:(fun () ->
        if Undo.recording () then begin
          let old = t.state in
          Undo.log (fun () ->
              t.state <- old;
              Heap.touch t.hslot)
        end;
        t.state <- t.persisted;
        Heap.touch t.hslot)
      ();
  t

let register t digest =
  match t.line with
  | None -> t.hslot <- Heap.register_c (fun () -> digest t.state)
  | Some l ->
      (* The line owner is a pid: relabel it when the snapshot carries a
         process permutation (symmetry canonicalization). *)
      t.hslot <-
        Heap.register_sym_c (fun perm ->
            let b = Buffer.create 64 in
            Heap.add_len_prefixed b (digest t.state);
            Heap.add_len_prefixed b (digest t.persisted);
            Heap.add_owner b perm (Persist.owner l);
            Buffer.contents b)

let make (type s o r)
    (module T : Rcons_spec.Object_type.S with type state = s and type op = o and type resp = r)
    init =
  let t =
    alloc
      ~equal_state:(fun a b -> T.compare_state a b = 0)
      ~apply:T.apply ~name:T.name ~op_kind:T.op_kind init
  in
  register t T.digest_state;
  t

let of_apply ?(name = "object") ~apply init =
  let t = alloc ~equal_state:( = ) ~apply ~name init in
  register t Heap.digest;
  t

(* Silent stores do not dirty the line: an operation that leaves the
   state unchanged (e.g. setting an already-set sticky bit) has nothing
   new to persist, so it must not take ownership of the line -- the
   pending un-persisted delta still belongs to the process that actually
   changed the state, and only THAT process's crash may revert it.
   Without this, a no-op apply by q would re-own p's un-flushed change
   and q's crash would silently destroy p's write. *)
let footprint t kind = Footprint.Obj { oid = t.oid; kind }

let set_state t state =
  if Undo.recording () then begin
    let old = t.state in
    Undo.log (fun () ->
        t.state <- old;
        Heap.touch t.hslot)
  end;
  t.state <- state;
  Heap.touch t.hslot

let apply t op =
  Sim.step ~label:t.obj_name ~fp:(footprint t (t.op_kind op)) (fun () ->
      let state, resp = t.apply_spec t.state op in
      match t.line with
      | None ->
          (* eager: no comparison, identical to the seed behaviour *)
          set_state t state;
          resp
      | Some l ->
          let changed = not (t.equal_state state t.state) in
          set_state t state;
          if changed then Persist.dirty l;
          resp)

let read t =
  Sim.step ~label:(t.obj_name ^ ".read") ~fp:(footprint t Footprint.Read) (fun () -> t.state)

let flush t = Sim.flush ~fp:(footprint t Footprint.Flush) t.line

(* Link-and-persist read: the returned state is durable (see
   [Cell.read_persist] for why the re-read must also find the line
   clean, not just value-stable). *)
let rec read_persist t =
  let q = read t in
  flush t;
  let q', clean =
    Sim.step ~label:(t.obj_name ^ ".read") ~fp:(footprint t Footprint.Sync) (fun () ->
        (t.state, match t.line with None -> true | Some l -> Persist.owner l = None))
  in
  if clean && t.equal_state q q' then q' else read_persist t

(* Out-of-simulation inspection for checkers and tests. *)
let peek t = t.state
let peek_persisted t = t.persisted
