module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch

(* Tuples are threaded onto an intrusive doubly-linked list ([rank_prev] /
   [rank_next]) holding the hit-frequency order used by [lookup_first]:
   append, removal and promote-to-front are all O(1), where the previous
   list representation paid O(#tuples) per insert ([@ [tu]]) and per remove
   ([List.filter]). *)
type 'a tuple = {
  mask : Mask.t;
  buckets : 'a Entry.t list Flow.Tbl.t; (* best-first lists *)
  mutable max_priority : int;
      (* an upper bound while [max_stale]; exact otherwise *)
  mutable max_stale : bool;
      (* a removal took out an entry at [max_priority]; [ensure] recomputes
         the maximum once for all of them (many entries share the top
         priority, so recomputing per removal makes a sweep quadratic) *)
  mutable count : int;
  mutable rank_prev : 'a tuple option;
  mutable rank_next : 'a tuple option;
}

type 'a t = {
  by_key : (int, 'a Entry.t) Hashtbl.t;
  tuples : 'a tuple Mask.Tbl.t;
  mutable ordered : 'a tuple list; (* max_priority desc; valid when not dirty *)
  mutable rank_head : 'a tuple option; (* hit-frequency order (first-match mode) *)
  mutable rank_tail : 'a tuple option;
  mutable dirty : bool;
  scratch : Flow.Scratch.t; (* transient masked-key buffer for lookups *)
}

let algorithm = "tss"

let create () =
  {
    by_key = Hashtbl.create 64;
    tuples = Mask.Tbl.create 16;
    ordered = [];
    rank_head = None;
    rank_tail = None;
    dirty = false;
    scratch = Flow.Scratch.create ();
  }

let rank_append t tu =
  tu.rank_prev <- t.rank_tail;
  tu.rank_next <- None;
  (match t.rank_tail with
  | Some tail -> tail.rank_next <- Some tu
  | None -> t.rank_head <- Some tu);
  t.rank_tail <- Some tu

let rank_unlink t tu =
  (match tu.rank_prev with
  | Some p -> p.rank_next <- tu.rank_next
  | None -> t.rank_head <- tu.rank_next);
  (match tu.rank_next with
  | Some n -> n.rank_prev <- tu.rank_prev
  | None -> t.rank_tail <- tu.rank_prev);
  tu.rank_prev <- None;
  tu.rank_next <- None

let rank_promote t tu =
  match t.rank_head with
  | Some head when head == tu -> ()
  | _ ->
      rank_unlink t tu;
      tu.rank_next <- t.rank_head;
      (match t.rank_head with
      | Some head -> head.rank_prev <- Some tu
      | None -> t.rank_tail <- Some tu);
      t.rank_head <- Some tu

let entry_order (a : 'a Entry.t) (b : 'a Entry.t) =
  if Entry.better a b then -1 else if Entry.better b a then 1 else 0

let insert t entry =
  if Hashtbl.mem t.by_key entry.Entry.key then invalid_arg "Tss.insert: duplicate key";
  Hashtbl.add t.by_key entry.Entry.key entry;
  let mask = Mask.intern (Fmatch.mask entry.Entry.fmatch) in
  let tuple =
    match Mask.Tbl.find_opt t.tuples mask with
    | Some tu -> tu
    | None ->
        let tu =
          {
            mask;
            buckets = Flow.Tbl.create 32;
            max_priority = min_int;
            max_stale = false;
            count = 0;
            rank_prev = None;
            rank_next = None;
          }
        in
        Mask.Tbl.add t.tuples mask tu;
        rank_append t tu;
        tu
  in
  let key = Fmatch.pattern entry.Entry.fmatch in
  let existing = Option.value ~default:[] (Flow.Tbl.find_opt tuple.buckets key) in
  Flow.Tbl.replace tuple.buckets key (List.sort entry_order (entry :: existing));
  tuple.count <- tuple.count + 1;
  if entry.Entry.priority > tuple.max_priority then tuple.max_priority <- entry.Entry.priority;
  t.dirty <- true

(* Bucket lists are best-first, so each bucket's head holds its maximum. *)
let recompute_max tuple =
  let m = ref min_int in
  Flow.Tbl.iter
    (fun _ entries ->
      match entries with
      | (e : 'a Entry.t) :: _ -> if e.priority > !m then m := e.priority
      | [] -> ())
    tuple.buckets;
  tuple.max_priority <- !m;
  tuple.max_stale <- false

let remove t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> false
  | Some entry ->
      Hashtbl.remove t.by_key key;
      let mask = Fmatch.mask entry.Entry.fmatch in
      (match Mask.Tbl.find_opt t.tuples mask with
      | None -> ()
      | Some tuple ->
          let bucket_key = Fmatch.pattern entry.Entry.fmatch in
          (match Flow.Tbl.find_opt tuple.buckets bucket_key with
          | None -> ()
          | Some entries ->
              let remaining = List.filter (fun (e : 'a Entry.t) -> e.key <> key) entries in
              if remaining = [] then Flow.Tbl.remove tuple.buckets bucket_key
              else Flow.Tbl.replace tuple.buckets bucket_key remaining);
          tuple.count <- tuple.count - 1;
          if tuple.count <= 0 then begin
            Mask.Tbl.remove t.tuples mask;
            rank_unlink t tuple
          end
          else if entry.Entry.priority >= tuple.max_priority then tuple.max_stale <- true);
      t.dirty <- true;
      true

let size t = Hashtbl.length t.by_key

let ensure t =
  if t.dirty then begin
    t.ordered <-
      Mask.Tbl.fold
        (fun _ tu acc ->
          if tu.max_stale then recompute_max tu;
          tu :: acc)
        t.tuples []
      |> List.sort (fun a b -> compare b.max_priority a.max_priority);
    t.dirty <- false
  end

let lookup t flow =
  ensure t;
  let rec go tuples best probes =
    match tuples with
    | [] -> (best, probes)
    | tuple :: rest -> (
        match best with
        | Some (b : 'a Entry.t) when b.priority > tuple.max_priority -> (best, probes)
        | _ ->
            let probes = probes + 1 in
            let key = Mask.apply_scratch tuple.mask flow t.scratch in
            let candidate =
              match Flow.Tbl.find_opt tuple.buckets key with
              | Some (e :: _) -> Some e
              | Some [] | None -> None
            in
            let best =
              match (best, candidate) with
              | None, c -> c
              | b, None -> b
              | Some b, Some c -> if Entry.better c b then Some c else Some b
            in
            go rest best probes)
  in
  go t.ordered None 0

(* First-match walk over hit-frequency-ranked tuples: sound when entries are
   pairwise disjoint (at most one can match), which Megaflow guarantees by
   construction.  A hit promotes its tuple to the front (O(1) on the
   intrusive list), so hot tuples are probed first — the ranked-subtable
   optimisation of OVS's dpcls. *)
let lookup_first t flow =
  let rec go node probes =
    match node with
    | None -> (None, probes)
    | Some tuple -> (
        let probes = probes + 1 in
        let key = Mask.apply_scratch tuple.mask flow t.scratch in
        match Flow.Tbl.find_opt tuple.buckets key with
        | Some (e :: _) ->
            rank_promote t tuple;
            (Some e, probes)
        | Some [] | None -> go tuple.rank_next probes)
  in
  go t.rank_head 0

(* Replay support for memoised first-match lookups: recompute the probe
   count a live [lookup_first] would pay {e right now} to reach [entry]'s
   tuple (its rank position changes as other flows promote their tuples),
   and apply the same promotion side effect — without re-masking the flow
   or re-probing any bucket.  Sound whenever [entry] is still present and
   entries are pairwise disjoint, even across unrelated inserts/removals:
   the positional walk counts exactly the tuples a live walk would probe
   before the (unique) match (see [Megaflow.lookup_memo]). *)
let replay_first t (entry : 'a Entry.t) =
  match Mask.Tbl.find_opt t.tuples (Fmatch.mask entry.Entry.fmatch) with
  | None -> None
  | Some tuple ->
      let rec pos node probes =
        match node with
        | None -> None
        | Some tu ->
            if tu == tuple then Some (probes + 1) else pos tu.rank_next (probes + 1)
      in
      (match pos t.rank_head 0 with
      | None -> None
      | Some probes ->
          rank_promote t tuple;
          Some probes)

(* Compiled form of [replay_first]: locate the entry's tuple once (one mask
   hash), and return a closure that does only the positional walk and the
   promotion.  The captured tuple object stays the entry's container for as
   long as the entry is in the classifier (entries never migrate between
   tuples), so callers may hold the closure until the entry is removed. *)
let prepare_first t (entry : 'a Entry.t) =
  match Mask.Tbl.find_opt t.tuples (Fmatch.mask entry.Entry.fmatch) with
  | None -> None
  | Some tuple ->
      Some
        (fun () ->
          let rec pos node probes =
            match node with
            | None -> invalid_arg "Tss.prepare_first: tuple left the rank list"
            | Some tu ->
                if tu == tuple then probes + 1 else pos tu.rank_next (probes + 1)
          in
          let probes = pos t.rank_head 0 in
          rank_promote t tuple;
          probes)

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_key []

let clear t =
  Hashtbl.reset t.by_key;
  Mask.Tbl.reset t.tuples;
  t.ordered <- [];
  t.rank_head <- None;
  t.rank_tail <- None;
  t.dirty <- false

let tuple_count t = Mask.Tbl.length t.tuples
