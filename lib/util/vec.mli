(** Growable arrays (OCaml 5.1 predates stdlib [Dynarray]).

    The [dummy] element passed at creation fills unused capacity; it is
    never observable through the API. *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** [get]/[set] raise [Invalid_argument] when out of bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** [append_prefix t src n] pushes the first [n] elements of [src]
    onto [t]; raises [Invalid_argument] unless [0 <= n <= length src]. *)
val append_prefix : 'a t -> 'a t -> int -> unit

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
val find_opt : ('a -> bool) -> 'a t -> 'a option
