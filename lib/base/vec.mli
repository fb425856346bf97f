(** Growable arrays.

    OCaml 5.1 predates [Dynarray]; this is the small subset the library
    needs, specialised for dense mutable storage of node attributes and
    worklists. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty vector with room for 8 elements. [dummy] fills unused
    capacity; it is never observable through the API. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val is_empty : 'a t -> bool
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
