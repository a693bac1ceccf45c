type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { data = Array.make capacity 0; len = 0 }

let length t = t.len

let grow t =
  let data = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let add t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ibuf.get: index out of bounds";
  t.data.(i)

let pop t =
  if t.len = 0 then invalid_arg "Ibuf.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let filter_in_place p t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!kept) <- x;
      incr kept
    end
  done;
  t.len <- !kept

let clear t = t.len <- 0

let reset_to t n =
  if n < 0 || n > t.len then invalid_arg "Ibuf.reset_to: bad length";
  t.len <- n

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
