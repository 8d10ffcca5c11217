module Fmatch = Gf_flow.Fmatch
module Action = Gf_pipeline.Action

type next = Next_tag of int | Done of Action.terminal

type origin = { parent_flow : Gf_flow.Flow.t; length : int; version : int }

type t = {
  tag_in : int;
  fmatch : Fmatch.t;
  priority : int;
  commit : (Gf_flow.Field.t * int) list;
  next : next;
  origin : origin;
}

type signature = {
  sig_hash : int;
  sig_tag_in : int;
  sig_pattern : int array;
  sig_mask : int array;
  sig_priority : int;
  sig_commit : (int * int) list;
  sig_next : next;
}

(* The generic [Hashtbl.hash] stops after ten meaningful words, which for a
   signature are the tag, the priority and the first pattern slots: rules
   that differ only in later fields (addresses, ports) or in their mask all
   collide, and every find or remove then walks the chain with polymorphic
   compares.  Hash the whole pattern and mask instead, once, when the
   signature is built. *)
let signature t =
  let sig_pattern = Gf_flow.Flow.to_array (Fmatch.pattern t.fmatch) in
  let sig_mask =
    Array.map (fun f -> Gf_flow.Mask.get (Fmatch.mask t.fmatch) f) Gf_flow.Field.all
  in
  let sig_commit = List.map (fun (f, v) -> (Gf_flow.Field.index f, v)) t.commit in
  let h = (Gf_flow.Vec.hash sig_pattern * 31) + Gf_flow.Vec.hash sig_mask in
  let h = (h * 31) + (t.tag_in * 7) + t.priority in
  {
    sig_hash = (h * 31) + Hashtbl.hash (sig_commit, t.next);
    sig_tag_in = t.tag_in;
    sig_pattern;
    sig_mask;
    sig_priority = t.priority;
    sig_commit;
    sig_next = t.next;
  }

let same_rule a b = signature a = signature b

module Signature_tbl = Hashtbl.Make (struct
  type t = signature

  let equal a b = compare a b = 0
  let hash s = s.sig_hash
end)

let pp_next fmt = function
  | Next_tag tag -> Format.fprintf fmt "tag:=%d" tag
  | Done terminal -> Format.fprintf fmt "done(%a)" Action.pp_terminal terminal

let pp fmt t =
  Format.fprintf fmt "[tau=%d rho=%d %a" t.tag_in t.priority Fmatch.pp t.fmatch;
  List.iter
    (fun (f, v) -> Format.fprintf fmt " set %s=%#x" (Gf_flow.Field.name f) v)
    t.commit;
  Format.fprintf fmt " %a]" pp_next t.next
