(** Region trees (Definition 3 of the paper): an execution decomposes
    into nested regions, one per statement instance, each containing the
    instances control dependent on its head; a virtual {!root} (index
    -1) encloses the top-level instances.

    A trace is a preorder of its region tree — instances appear in
    execution-start order, and each is reserved while its control
    parent's region is still open — so a region is an interval of trace
    indices, [\[r, last r\]].  Building the tree is one backward pass
    over the recorded control parents; membership is two comparisons,
    and the subregions of [r] are walked as [r + 1], then [last c + 1]
    after each [c], up to [last r]. *)

type t

val root : int
val build : Exom_interp.Trace.t -> t
val length : t -> int
val get : t -> int -> Exom_interp.Trace.instance

(** Parent region head; raises [Invalid_argument] on the root. *)
val parent : t -> int -> int

(** The last instance of the region headed by [r]: [r] itself when it
    has no subregions, [length t - 1] for the root. *)
val last : t -> int -> int

(** Subregion heads, in execution order (built on each call). *)
val children : t -> int -> int list

(** O(1): is [u] within the region headed by [r] ([u = r] included)?
    The root contains everything. *)
val in_region : t -> u:int -> r:int -> bool

val first_subregion : t -> int -> int option

(** Next sibling within the same parent region, if any. *)
val sibling : t -> int -> int option

val branch : t -> int -> bool option
val sid : t -> int -> int
val depth : t -> int -> int

(** Paper-style textual rendering of one region / of the whole
    execution: "[6 7 8 [11 12] 6]".  [label] defaults to the statement
    id; pass e.g. a line-number lookup for source-level output. *)
val render_region : ?label:(t -> int -> int) -> t -> int -> string

val render_forest : ?label:(t -> int -> int) -> t -> string
