module Entry = Gf_classifier.Entry
module Tss = Gf_classifier.Tss

type stored = {
  rule : Ltm_rule.t;
  signature : Ltm_rule.signature; (* of [rule], computed once at insert *)
  key : int;
  mutable last_used : float;
  mutable last_hit : float;
      (* last time a walk *completed* through this entry (or an install
         reused it) — unlike [last_used], partial walks that dead-end and
         fall to the slowpath do not refresh it, so replacement policies
         see dead chain prefixes as cold even though every miss still
         touches them. *)
  mutable shares : int;
}

type t = {
  capacity : int;
  by_tag : (int, stored Tss.t) Hashtbl.t;
      (* exact match on the tag = one classifier per tag value *)
  by_signature : stored Ltm_rule.Signature_tbl.t;
  by_key : (int, stored) Hashtbl.t;
  mutable next_key : int;
}

let create ~capacity =
  assert (capacity > 0);
  {
    capacity;
    by_tag = Hashtbl.create 16;
    by_signature = Ltm_rule.Signature_tbl.create 64;
    by_key = Hashtbl.create 64;
    next_key = 0;
  }

let capacity t = t.capacity
let occupancy t = Hashtbl.length t.by_key
let is_full t = occupancy t >= t.capacity

let lookup t ~tag flow =
  match Hashtbl.find_opt t.by_tag tag with
  | None -> (None, 1)
  | Some classifier ->
      let result, work = Tss.lookup classifier flow in
      ((match result with Some e -> Some e.Entry.payload | None -> None), max 1 work)

let find_identical t signature = Ltm_rule.Signature_tbl.find_opt t.by_signature signature

let insert t ~now rule =
  if is_full t then invalid_arg "Ltm_table.insert: table full";
  let key = t.next_key in
  t.next_key <- key + 1;
  let signature = Ltm_rule.signature rule in
  let stored = { rule; signature; key; last_used = now; last_hit = now; shares = 1 } in
  let classifier =
    match Hashtbl.find_opt t.by_tag rule.Ltm_rule.tag_in with
    | Some c -> c
    | None ->
        let c = Tss.create () in
        Hashtbl.add t.by_tag rule.Ltm_rule.tag_in c;
        c
  in
  Tss.insert classifier
    (Entry.v ~key ~fmatch:rule.Ltm_rule.fmatch ~priority:rule.Ltm_rule.priority stored);
  Ltm_rule.Signature_tbl.replace t.by_signature signature stored;
  Hashtbl.replace t.by_key key stored;
  stored

let remove t stored =
  match Hashtbl.find_opt t.by_key stored.key with
  | None -> ()
  | Some s ->
      Hashtbl.remove t.by_key s.key;
      Ltm_rule.Signature_tbl.remove t.by_signature s.signature;
      (match Hashtbl.find_opt t.by_tag s.rule.Ltm_rule.tag_in with
      | Some classifier -> ignore (Tss.remove classifier s.key)
      | None -> ())

let iter t f = Hashtbl.iter (fun _ s -> f s) t.by_key

let fold t ~init ~f = Hashtbl.fold (fun _ s acc -> f acc s) t.by_key init

let tag_edges t =
  let counts = Hashtbl.create 16 in
  iter t (fun s ->
      let key = (s.rule.Ltm_rule.tag_in, s.rule.Ltm_rule.next) in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)));
  Hashtbl.fold (fun (tag_in, next) n acc -> (tag_in, next, n) :: acc) counts []
