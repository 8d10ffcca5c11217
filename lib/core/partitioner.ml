module Field = Gf_flow.Field
module Mask = Gf_flow.Mask
module Traversal = Gf_pipeline.Traversal

type scheme = Disjoint | Random | One_to_one

type segment = { first : int; last : int }

let segment_length s = s.last - s.first + 1

let step_fieldsets traversal =
  Array.map Traversal.step_fields traversal.Traversal.steps

(* Connected-overlap check.  Steps that consult no field (default hops)
   constrain nothing and never break coherence. *)
let coherent fieldsets ~first ~last =
  let idxs =
    List.filter
      (fun i -> not (Field.Set.is_empty fieldsets.(i)))
      (List.init (last - first + 1) (fun k -> first + k))
  in
  match idxs with
  | [] | [ _ ] -> true
  | seed :: _ ->
      (* BFS over the overlap graph. *)
      let visited = Hashtbl.create 8 in
      let queue = Queue.create () in
      Queue.add seed queue;
      Hashtbl.replace visited seed ();
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        List.iter
          (fun j ->
            if
              (not (Hashtbl.mem visited j))
              && not (Field.Set.disjoint fieldsets.(i) fieldsets.(j))
            then begin
              Hashtbl.replace visited j ();
              Queue.add j queue
            end)
          idxs
      done;
      List.for_all (Hashtbl.mem visited) idxs

(* Per-(first, last) segment score and tie-break penalty, flat [n * n]
   tables indexed [first * n + last].  Score: length when the segment is
   coherent, 0 otherwise.  Penalty: the wildcard bits an incoherent
   segment's cache entry would carry — used to pick the least constraining
   merge when K forces boundary crossings.

   Each [first] extends [last] one step at a time, carrying
   - the overlap components as their field unions (10-bit ints, pairwise
     disjoint, so at most [Field.count] of them): a step merges every
     component its fields touch, and the segment is coherent iff at most
     one component remains — the connected-overlap answer of [coherent];
   - the re-based wildcard, accumulated in place past the fields an earlier
     step of the segment overwrote ([Traversal.wildcard_of_steps]'s rule).
   O(n^2 F) integer work and no allocation per pair. *)
let tables_of traversal =
  let steps = traversal.Traversal.steps in
  let n = Array.length steps in
  let fields = Array.map (fun s -> Mask.field_bits s.Traversal.wildcard) steps in
  let sets = Array.map Traversal.set_field_bits steps in
  let score = Array.make (n * n) 0 in
  let penalty = Array.make (n * n) 0 in
  let comps = Array.make Field.count 0 in
  let wildcard = Array.make Field.count 0 in
  for first = 0 to n - 1 do
    let ncomps = ref 0 and overwritten = ref 0 in
    Array.fill wildcard 0 Field.count 0;
    for last = first to n - 1 do
      let f = fields.(last) in
      if f <> 0 then begin
        let merged = ref f and kept = ref 0 in
        for c = 0 to !ncomps - 1 do
          let u = comps.(c) in
          if u land f <> 0 then merged := !merged lor u
          else begin
            comps.(!kept) <- u;
            incr kept
          end
        done;
        comps.(!kept) <- !merged;
        ncomps := !kept + 1
      end;
      Mask.union_into wildcard steps.(last).Traversal.wildcard ~except:!overwritten;
      overwritten := !overwritten lor sets.(last);
      let at = (first * n) + last in
      if !ncomps <= 1 then score.(at) <- last - first + 1
      else begin
        let bits = ref 0 in
        for i = 0 to Field.count - 1 do
          bits := !bits + Gf_util.Bitops.popcount wildcard.(i)
        done;
        penalty.(at) <- !bits
      end
    done
  done;
  (score, penalty)

let evaluate traversal segments =
  let n = Traversal.length traversal in
  let score, penalty = tables_of traversal in
  List.fold_left
    (fun (s, p) seg ->
      let at = (seg.first * n) + seg.last in
      (s + score.(at), p + penalty.(at)))
    (0, 0) segments

(* (score, penalty) pairs ordered: higher score first, then lower
   penalty. *)
let better s1 p1 s2 p2 = s1 > s2 || (s1 = s2 && p1 < p2)

(* DP over flat [(n + 1) * (kmax + 1)] arrays indexed [i * (kmax + 1) + k]:
   the best (score, penalty) of covering steps [0..i-1] with exactly [k]
   segments, and the start of the last of them ([-1]: unreachable). *)
let disjoint_partition traversal ~max_segments =
  let n = Traversal.length traversal in
  let kmax = min max_segments n in
  let w = kmax + 1 in
  let seg_score, seg_penalty = tables_of traversal in
  let score = Array.make ((n + 1) * w) 0 in
  let penalty = Array.make ((n + 1) * w) 0 in
  let parent = Array.make ((n + 1) * w) (-1) in
  (* The empty cover of no steps is the one reachable start. *)
  parent.(0) <- 0;
  for i = 1 to n do
    for k = 1 to min kmax i do
      let at = (i * w) + k in
      for j = k - 1 to i - 1 do
        let from = (j * w) + k - 1 in
        if parent.(from) >= 0 then begin
          let seg = (j * n) + i - 1 in
          let s = score.(from) + seg_score.(seg)
          and p = penalty.(from) + seg_penalty.(seg) in
          (* Strict improvement only: the first [j] wins ties. *)
          if parent.(at) < 0 || better s p score.(at) penalty.(at) then begin
            score.(at) <- s;
            penalty.(at) <- p;
            parent.(at) <- j
          end
        end
      done
    done
  done;
  (* Fewest segments among the best (score, penalty): iterate k ascending
     and replace only on strict improvement. *)
  let best_k = ref 1 in
  for k = 2 to kmax do
    let at = (n * w) + k and cur = (n * w) + !best_k in
    if
      parent.(at) >= 0
      && (parent.(cur) < 0 || better score.(at) penalty.(at) score.(cur) penalty.(cur))
    then best_k := k
  done;
  let rec rebuild i k acc =
    if k = 0 then acc
    else
      let j = parent.((i * w) + k) in
      rebuild j (k - 1) ({ first = j; last = i - 1 } :: acc)
  in
  rebuild n !best_k []

let random_partition rng ~n ~max_segments =
  let kmax = min max_segments n in
  let m = 1 + Gf_util.Rng.int rng kmax in
  (* Choose m-1 distinct cut points among the n-1 gaps. *)
  let gaps = Array.init (n - 1) (fun i -> i + 1) in
  Gf_util.Rng.shuffle rng gaps;
  let cuts = Array.sub gaps 0 (min (m - 1) (n - 1)) in
  Array.sort compare cuts;
  let bounds = Array.to_list cuts @ [ n ] in
  let rec build start = function
    | [] -> []
    | b :: rest -> { first = start; last = b - 1 } :: build b rest
  in
  build 0 bounds

let one_to_one ~n ~max_segments =
  let kmax = min max_segments n in
  let head = List.init (kmax - 1) (fun i -> { first = i; last = i }) in
  head @ [ { first = kmax - 1; last = n - 1 } ]

let partition ?rng scheme ~max_segments traversal =
  if max_segments < 1 then invalid_arg "Partitioner.partition: max_segments < 1";
  let n = Traversal.length traversal in
  assert (n > 0);
  if n = 1 then [ { first = 0; last = 0 } ]
  else
    match scheme with
    | Disjoint -> disjoint_partition traversal ~max_segments
    | One_to_one -> one_to_one ~n ~max_segments
    | Random -> (
        match rng with
        | None -> invalid_arg "Partitioner.partition: Random requires ~rng"
        | Some rng -> random_partition rng ~n ~max_segments)

let brute_force_best traversal ~max_segments =
  let n = Traversal.length traversal in
  let seg_score, seg_penalty = tables_of traversal in
  let best = ref None in
  let rec go start count score penalty =
    if start = n then begin
      let v = (score, penalty, count) in
      let improves =
        match !best with
        | None -> true
        | Some (s, p, c) ->
            better score penalty s p || (score = s && penalty = p && count < c)
      in
      if improves then best := Some v
    end
    else if count < max_segments then
      for last = start to n - 1 do
        go (last + 1) (count + 1)
          (score + seg_score.((start * n) + last))
          (penalty + seg_penalty.((start * n) + last))
      done
  in
  go 0 0 0 0;
  match !best with Some v -> v | None -> (0, 0, 0)
