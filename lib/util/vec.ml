type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 16 dummy; len = 0; dummy }

let length t = t.len

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = max n (2 * Array.length t.data) in
    let data = Array.make cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let append_prefix t src n =
  if n < 0 || n > src.len then
    invalid_arg "Vec.append_prefix: length out of bounds";
  ensure_capacity t (t.len + n);
  Array.blit src.data 0 t.data t.len n;
  t.len <- t.len + n

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

let of_list ~dummy xs =
  let t = create ~dummy in
  List.iter (push t) xs;
  t

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let find_opt p t =
  let rec loop i =
    if i >= t.len then None
    else if p t.data.(i) then Some t.data.(i)
    else loop (i + 1)
  in
  loop 0
