type t = int array
(* Same representation as Flow.t: slot i masks [Field.of_index i]. *)

let truncate f v = v land Field.full_mask f

let empty = Array.make Field.count 0

let full = Array.map Field.full_mask Field.all

let make bindings =
  let a = Array.make Field.count 0 in
  List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
  a

let exact_fields fields =
  let a = Array.make Field.count 0 in
  List.iter (fun f -> a.(Field.index f) <- Field.full_mask f) fields;
  a

let prefix f len = make [ (f, Gf_util.Bitops.prefix_mask ~width:(Field.width f) len) ]

let get t f = t.(Field.index f)

let set t f v =
  let a = Array.copy t in
  a.(Field.index f) <- truncate f v;
  a

let union a b = Array.init Field.count (fun i -> a.(i) lor b.(i))
let inter a b = Array.init Field.count (fun i -> a.(i) land b.(i))

(* Physical equality first: interned masks (see [intern]) make the common
   same-tuple comparison a single pointer check. *)
let equal = Vec.equal

let compare = Stdlib.compare

(* Same hash as [Flow.hash]: mask vectors are prefix-shaped too (high
   bits set, low bits zero), so they need the finalizer as much as keys. *)
let hash = Vec.hash

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Hash-consing: one canonical array per distinct mask value, so that tuple
   bookkeeping in the classifiers ([Tss.insert], [Oftable.rebuild]) hits the
   [==] fast path of [equal].  The table only ever holds distinct rule /
   consulted wildcards — a few hundred in the largest workloads — and is
   mutex-guarded because parallel replay domains intern concurrently. *)
let intern_lock = Mutex.create ()

let interned : t Tbl.t = Tbl.create 256

let intern m =
  Mutex.protect intern_lock (fun () ->
      match Tbl.find_opt interned m with
      | Some canonical -> canonical
      | None ->
          Tbl.add interned m m;
          m)

let () = List.iter (fun m -> ignore (intern m)) [ empty; full ]

let is_empty t = Array.for_all (fun v -> v = 0) t

let bits t = Array.fold_left (fun acc v -> acc + Gf_util.Bitops.popcount v) 0 t

let fields t =
  let s = ref Field.Set.empty in
  Array.iteri (fun i v -> if v <> 0 then s := Field.Set.add (Field.of_index i) !s) t;
  !s

let field_bits t =
  let b = ref 0 in
  for i = 0 to Field.count - 1 do
    if t.(i) <> 0 then b := !b lor (1 lsl i)
  done;
  !b

let union_into acc t ~except =
  for i = 0 to Field.count - 1 do
    if except land (1 lsl i) = 0 then acc.(i) <- acc.(i) lor t.(i)
  done

let of_acc acc =
  assert (Array.length acc = Field.count);
  acc

let disjoint a b =
  let rec go i = i >= Field.count || ((a.(i) = 0 || b.(i) = 0) && go (i + 1)) in
  go 0

let subsumes ~loose ~tight =
  let rec go i =
    i >= Field.count || (loose.(i) land tight.(i) = loose.(i) && go (i + 1))
  in
  go 0

let apply t flow = Flow.land_array flow t

let matches t ~pattern flow =
  let rec go i =
    i >= Field.count
    ||
    let f = Field.of_index i in
    Int.equal (Flow.get pattern f land t.(i)) (Flow.get flow f land t.(i))
    && go (i + 1)
  in
  go 0

let pp fmt t =
  let first = ref true in
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        if not !first then Format.pp_print_char fmt ' ';
        first := false;
        let f = Field.of_index i in
        if v = Field.full_mask f then Format.fprintf fmt "%s=*exact*" (Field.name f)
        else Format.fprintf fmt "%s=%#x" (Field.name f) v
      end)
    t;
  if !first then Format.pp_print_string fmt "<any>"

let to_string t = Format.asprintf "%a" pp t
