type t = int array
(* Invariant: length = Field.count; slot i holds the value of
   [Field.of_index i], truncated to the field width. *)

let zero = Array.make Field.count 0

let truncate f v = v land Field.full_mask f

let make bindings =
  let a = Array.make Field.count 0 in
  List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
  a

let get t f = t.(Field.index f)

let set t f v =
  let a = Array.copy t in
  a.(Field.index f) <- truncate f v;
  a

let update t bindings =
  match bindings with
  | [] -> t
  | _ ->
      let a = Array.copy t in
      List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
      a

(* Monomorphic and allocation-free: no polymorphic [compare] on the
   per-packet cache probes. *)
let equal = Vec.equal

let compare = Stdlib.compare

let hash = Vec.hash

let to_array t = Array.copy t

let of_array a =
  if Array.length a <> Field.count then invalid_arg "Flow.of_array";
  Array.mapi (fun i v -> truncate (Field.of_index i) v) a

(* Single-pass masked copy: AND can only clear bits, so the result needs no
   re-truncation (unlike [of_array]).  This is [Mask.apply]'s engine. *)
let land_array t m = Array.init Field.count (fun i -> t.(i) land m.(i))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp fmt t =
  let first = ref true in
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        if not !first then Format.pp_print_char fmt ' ';
        first := false;
        Format.fprintf fmt "%s=%#x" (Field.name (Field.of_index i)) v
      end)
    t;
  if !first then Format.pp_print_string fmt "<zero>"

let to_string t = Format.asprintf "%a" pp t

module Scratch = struct
  type nonrec t = int array

  let create () = Array.make Field.count 0

  let fill_masked s ~mask flow =
    for i = 0 to Field.count - 1 do
      s.(i) <- mask.(i) land flow.(i)
    done;
    s
end
