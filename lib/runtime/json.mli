(** Minimal JSON values, printer and parser.

    The repository has no external JSON dependency, and its artifacts --
    counterexample witnesses ([_counterexamples/*.json]), explorer
    checkpoints, certificates, the bench's [BENCH_*.json] files -- need
    only plain JSON: objects, arrays, strings, ints, floats, bools and
    null.  This module is that, nothing more.  Printing is deterministic
    (object fields keep their construction order), so artifacts are
    diffable and byte-stable across runs; [parse] accepts anything
    {!to_string} emits plus ordinary whitespace, and rejects trailing
    garbage.

    A finite {!Float} prints in its shortest round-trip form -- [%.15g]
    when that reads back as the same float, [%.17g] otherwise -- and
    always carries a [.] or an exponent, so [18.891] prints as [18.891]
    and [1e15] as [1e+15]: every float reads back as the same {!Float},
    never as an {!Int}.  A caller that wants a fixed precision (the bench
    artifacts' [%.3f]-style fields) rounds through that format before
    wrapping the value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with [indent] spaces of nesting (default 2); a [~indent:0]
    rendering is single-line. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    offending offset.  Numbers without [.]/[e] parse as {!Int}. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

(** {2 Accessors} -- all raise [Invalid_argument] on shape mismatches,
    so artifact loading fails with a useful one-line message.  A
    missing field is named ([Json: missing field "level"]); so is a
    field of the wrong type when the caller says which field it read,
    through [?field] or {!get} ([field "level": expected int]). *)

val member : string -> t -> t option
val field : string -> t -> t
val to_int : ?field:string -> t -> int
val to_float : ?field:string -> t -> float
val to_bool : ?field:string -> t -> bool
val to_str : ?field:string -> t -> string
val to_list : ?field:string -> t -> t list

val get : string -> (?field:string -> t -> 'a) -> t -> 'a
(** [get k conv v] is [conv] applied to field [k] of [v], with [k]
    named in a type mismatch: [get "level" to_int v]. *)

val require_version : what:string -> int -> t -> unit
(** [require_version ~what n v] checks that [v]'s ["version"] field is
    the int [n]; otherwise it raises [Invalid_argument] naming [what]
    and both versions.  Artifact loaders call it before reading any
    other field, so a file from another format version is refused
    rather than misread. *)
