(** A Gigaflow LTM cache rule (paper Fig. 5b / section 4.2.3).

    One rule caches one sub-traversal.  Its components are exactly the
    paper's tuple: a table tag [tau] (exact match on the starting vSwitch
    table id), a ternary match predicate [M] with wildcard [omega], a
    priority [rho] equal to the sub-traversal length (the LTM criterion),
    and an action [alpha] — the commit (header rewrites) plus either a jump
    to the next expected table tag or the terminal decision. *)

type next =
  | Next_tag of int
      (** The sub-traversal ends mid-pipeline; the packet's tag becomes the
          id of the next vSwitch table and a later LTM table must match. *)
  | Done of Gf_pipeline.Action.terminal
      (** The sub-traversal reaches the end of the pipeline. *)

type origin = {
  parent_flow : Gf_flow.Flow.t;
      (** Flow state at the sub-traversal's first step, used as the
          representative input for revalidation. *)
  length : int;  (** Number of vSwitch tables spanned. *)
  version : int;  (** Pipeline version when the rule was generated. *)
}

type t = {
  tag_in : int;  (** Starting vSwitch table id ([tau]). *)
  fmatch : Gf_flow.Fmatch.t;  (** Match predicate + wildcard ([M], [omega]). *)
  priority : int;  (** Sub-traversal length ([rho]). *)
  commit : (Gf_flow.Field.t * int) list;  (** Header rewrites to replay. *)
  next : next;
  origin : origin;
}

type signature
(** The behavioural identity of a rule: everything except [origin].  Two
    rules with equal signatures are interchangeable in the cache, which is
    what enables cross-traversal sharing. *)

val signature : t -> signature
val same_rule : t -> t -> bool
(** Signature equality. *)

module Signature_tbl : Hashtbl.S with type key = signature
(** Hash table keyed by signatures, hashing every field (the generic
    [Hashtbl.hash] sees only a prefix of a signature). *)

val pp : Format.formatter -> t -> unit
