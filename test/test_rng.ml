(* Unit and property tests for the SplitMix64 generator. *)

(* Known answers and a reference implementation: [Sim.Rng] must be
   bit-exact SplitMix64, because every recorded schedule, baseline and
   digest is a function of its streams. *)

(* SplitMix64 written the textbook way on boxed [Int64] values: slow, but
   obviously the published algorithm. *)
module Ref = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let bits64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let bits t = Int64.to_int (bits64 t)
  let int t b = Int64.(to_int (rem (shift_right_logical (bits64 t) 1) (of_int b)))
  let bool t = Int64.logand (bits64 t) 1L = 1L
  let float t b = Int64.(to_float (shift_right_logical (bits64 t) 11)) /. 9007199254740992.0 *. b
  let split t = { s = bits64 t }
end

type kat = {
  seed : int;
  bits64 : int64 array;  (* the first 64 outputs *)
  ints : int array;  (* then [int] at each of [kat_bounds] *)
  bool : bool;
  float : float;  (* [float 1.0] *)
  child : int64 array;  (* then a [split] child's first outputs *)
  after_split : int64;  (* and the parent's next output *)
}

let kat_bounds = [| 1; 2; 3; 16; 32; 1000; max_int |]

(* Generated by [Ref]. *)
let kats =
  [
    { seed = 0;
      bits64 =
        [| 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
           0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
           0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L;
           0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L;
           0x8621a03fe0bbdb7bL; 0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L;
           0x84bb3f97971d80abL; 0x7d29825c75521255L; 0xc3cf17102b7f7f86L;
           0x3466e9a083914f64L; 0xd81a8d2b5a4485acL; 0xdb01602b100b9ed7L;
           0xa9038a921825f10dL; 0xedf5f1d90dca2f6aL; 0x54496ad67bd2634cL;
           0xdd7c01d4f5407269L; 0x935e82f1db4c4f7bL; 0x69b82ebc92233300L;
           0x40d29eb57de1d510L; 0xa2f09dabb45c6316L; 0xee521d7a0f4d3872L;
           0xf16952ee72f3454fL; 0x377d35dea8e40225L; 0x0c7de8064963bab0L;
           0x05582d37111ac529L; 0xd254741f599dc6f7L; 0x69630f7593d108c3L;
           0x417ef96181daa383L; 0x3c3c41a3b43343a1L; 0x6e19905dcbe531dfL;
           0x4fa9fa7324851729L; 0x84eb4454a792922aL; 0x134f7096918175ceL;
           0x07dc930b302278a8L; 0x12c015a97019e937L; 0xcc06c31652ebf438L;
           0xecee65630a691e37L; 0x3e84ecb1763e79adL; 0x690ed476743aae49L;
           0x774615d7b1a1f2e1L; 0x22b353f04f4f52daL; 0xe3ddd86ba71a5eb1L;
           0xdf268adeb6513356L; 0x2098eb73d4367d77L; 0x03d6845323ce3c71L;
           0xc952c5620043c714L; 0x9b196bca844f1705L; 0x30260345dd9e0ec1L;
           0xcf448a5882bb9698L; 0xf4a578dccbc87656L; 0xbfdeaed9a17b3c8fL;
           0xed79402d1d5c5d7bL; 0x55f070ab1cbbf170L; 0x3e00a34929a88f1dL;
           0xe255b237b8bb18fbL; |];
      ints = [| 0; 1; 2; 12; 30; 360; 3982561364011922017; |];
      bool = true;
      float = 0x1.73379e080f0d8p-2;
      child = [| 0x4c015337db287d42L; 0xd9863ddb3bf230f1L; 0x785ad920f1a0a146L |];
      after_split = 0xef054fceee954551L;
    };
    { seed = 1;
      bits64 =
        [| 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
           0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L;
           0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L; 0x491718de357e3da8L;
           0xcb435c8e74616796L; 0x6775dc7701564f61L; 0x9afcd44d14cf8bfeL;
           0x7476cf8a4baa5dc0L; 0x87b341d690d7a28aL; 0x6f9b6dae6f4c57a8L;
           0x2ac2ce17a5794a3bL; 0xa534a6a6b7fd0b63L; 0xd0bad0da572baaf1L;
           0xae84379630af89eeL; 0xe263183773ef6508L; 0x10e2c46865e98746L;
           0x14d7973c5c2a449cL; 0x7ef1fd0ed1548fcdL; 0x1f8410633ef306acL;
           0x497305c5d1aab99fL; 0x0c43407dc177b6f7L; 0x83f91ca7864a7135L;
           0xb6b9aeef0d2df7abL; 0x0b331645445bcd27L; 0xff6c67e81909778aL;
           0x990cd70b12c5d084L; 0x962b1967c90789baL; 0x65ace2685a072c6dL;
           0x70616f2f48dce01cL; 0x40d6824e2ef3fc17L; 0x879e2e2256feff0cL;
           0x8b2e02445e4be0f5L; 0xbf8c59bb003553c1L; 0xd16aa4b296eb9d18L;
           0xab27a171be5b133cL; 0xdca0c749607e2c86L; 0xb54b3c40881e2907L;
           0x3c821fbf59108163L; 0xa7ff0d388687ffb2L; 0xde70d1019fc66081L;
           0xd6de6acd12c87e38L; 0x530e0e6118e9685eL; 0x28bff9ea304d9f96L;
           0xe4d9303221373073L; 0xe9a6100461edd57aL; 0x4d4673ef77ba0574L;
           0x21af8cfd4c4cbee5L; 0x536000f4bd6ae8f8L; 0xf0af3ce429ca1790L;
           0x64c70b0b0c5b4a8fL; 0x167587272751ecafL; 0x9b679c859acd7aafL;
           0x27cd5f9ec8c694ccL; 0xf55540b2bff06252L; 0xe02852925a4dc852L;
           0x86c5d1b05ce2ce14L; 0x1180b23a1075b77fL; 0xc09a1a817914ffbcL;
           0x88b894e1401ed25bL; |];
      ints = [| 0; 0; 1; 5; 20; 533; 1491570327102558896; |];
      bool = true;
      float = 0x1.f2042ab54651ap-1;
      child = [| 0x9bcb6a1d82f1ce66L; 0xc2494604e91b1ae6L; 0xa605e397128df8dcL |];
      after_split = 0x90ccb6a06cd2330eL;
    };
    { seed = 42;
      bits64 =
        [| 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
           0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
           0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L;
           0x9e54d738297f77aeL; 0x3474724a775b19bfL; 0x7e348a0e451650beL;
           0x836ded897f3e46e6L; 0x851f977347ed6db7L; 0xaa47e31c02e78edcL;
           0x341452c54d7c33f2L; 0x1a83d752f35eba75L; 0x7ed90003f67f9e1dL;
           0x17eadff448a86a07L; 0xb05eca1a2972b860L; 0xf513444b6455a3e8L;
           0x12b3a6dd261f6e99L; 0x998d8fb100ca15d5L; 0x9eac75d45474c891L;
           0x12fc33f229b7b950L; 0x470ea7e37990e511L; 0xbdf25b150620a835L;
           0xc9167e198fb9991fL; 0xf1222631cdc86d07L; 0xb1b59f1b53585e43L;
           0xca376da14213d975L; 0xd72c1692509d2c5eL; 0xa5a7fe4e63a4f49dL;
           0xc83b65023bcb7fdeL; 0xa3351c7fc9a4c255L; 0x61492dc04af06e43L;
           0x102267f0f38c5511L; 0x441c09c50b29db41L; 0xc2de56b8961d5f40L;
           0x178b25ac7ebbdf84L; 0x87bebc2706d02922L; 0x28b7d294ce2b6939L;
           0x45e78cf4fe332d8cL; 0xc6582fcba2a4af11L; 0xab155b91ff450033L;
           0x5246b314ecd58fcaL; 0x15a099069c7d64aaL; 0x247b01271f2670d7L;
           0x813f3c933ea15b6eL; 0xf828b6a4c0f08cefL; 0x5e402c0a9dd5bb41L;
           0x30415e8a6be95008L; 0x2781afb139cc2d24L; 0x51f578ece4c68f5bL;
           0x06ad07051c9dfa35L; 0xd28f82f00d3cd44bL; 0xaf080b41cdf27a01L;
           0x8e53b8da0059e8baL; 0xe00926ac0ba9b7b0L; 0x084235b62dc64cbaL;
           0x42577fcef4571016L; 0xf6fd4f0b3ac5ea86L; 0x9c08f817bb9e9346L;
           0x0b7dcbd429a0baaaL; |];
      ints = [| 0; 1; 2; 11; 30; 411; 3661077068713169510; |];
      bool = true;
      float = 0x1.4fa13b99f78bp-3;
      child = [| 0x1d7ab394066bdfd0L; 0xcf5ab2fcb32c646fL; 0x14ba9bc6b9c062a8L |];
      after_split = 0xcc4304242b442e02L;
    };
    { seed = -1;
      bits64 =
        [| 0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L;
           0x6d1db36ccba982d2L; 0xb4a0472e578069aeL; 0xd31dadbda438bb33L;
           0xf14f2cf802083fa5L; 0x405da438a39e8064L; 0xc4fea708156e0c84L;
           0x031e50fe7bbd6e1cL; 0x03b234961e71cf15L; 0xce755952d3025da7L;
           0x01c9558bd006badbL; 0xdd90e10f6f7c1c8aL; 0x354d0df8b25878c1L;
           0xaceea13ca07e34e8L; 0x6887829e84a5e267L; 0x312b54a59456e8d2L;
           0x2310bd4abe96ea03L; 0x6c5edf5c23be2179L; 0x5d4bee7accc8783dL;
           0xac2cc6679ba3863fL; 0x78a0a3eb16c17603L; 0x31bafc61d077172eL;
           0x2f36eb3751d114e2L; 0x9862f4d38a9cdc26L; 0xd870587c607f67b4L;
           0x728bbe64523ced67L; 0xc1af2b37c863da48L; 0x0477de91b96b7b43L;
           0x24bdf605ee188704L; 0xde2b5db652a541feL; 0x69d22506dd4562e7L;
           0xf32a883a6fe8c041L; 0x9464fd3ad6ffc7e6L; 0x5d49306645a3f5d0L;
           0x1034c75d19b90a68L; 0x3a08646895d4c27dL; 0x3909f559401b6dabL;
           0x6d8e0875d2244181L; 0xc1ea999540c6b593L; 0xb2c2ee357b69687aL;
           0x0be2af7de053863bL; 0xbe12d15ea25ab6dbL; 0x67a35627faee2176L;
           0x1fef5432ddefddf6L; 0x7ffafaa792469e76L; 0xd8552dd6a89d98ebL;
           0xc9b1d73980d19013L; 0xc49013cf9659a284L; 0x20a1c64a81220e03L;
           0xc59633610ccf1a30L; 0xbca720bf33d872b2L; 0x158726feb534ede3L;
           0x754d2727099fc988L; 0x4b39ba29f824570eL; 0x6951c595b9fd6983L;
           0x397c1e3b5d1f14c5L; 0xca0c5833da8972d7L; 0x69d3dbec2ed27ff2L;
           0xa8f60453f01a91bcL; 0xaf9e296a11fa84c8L; 0x19d8195b23e4c895L;
           0xf63b7b9046fea981L; |];
      ints = [| 0; 1; 1; 9; 29; 385; 2519542634968647587; |];
      bool = true;
      float = 0x1.c8f735abed39p-1;
      child = [| 0xf07a837502042a61L; 0x50f56ac3e68f29b3L; 0x01485bca7c1e9aabL |];
      after_split = 0x9d909260c32210d8L;
    };
    { seed = max_int;
      bits64 =
        [| 0x43df0885536978a6L; 0x101018cc4a4cadfdL; 0xf7123db96bb11521L;
           0x6eb32f7ee5175c16L; 0xb954958d2f637748L; 0xe07958afd6d62eb7L;
           0xbce9aaa54afdb47eL; 0x07eea021a2857177L; 0x1f352ff21e902313L;
           0x3af8cf713f523122L; 0x62eb064f3249c986L; 0x45aa5934ee2760c9L;
           0x3a25649334650c4aL; 0x7f808d5a4cc20242L; 0xac220bfb975459a5L;
           0x4caf495e78571c0eL; 0xad69de818b8a9f7aL; 0xd939ded92b516648L;
           0x8ce9277fd1f988cbL; 0x3ee99b0427cfb2a8L; 0x2b5a9a30f2bc51c8L;
           0xd4057767d8f84f9eL; 0x0281871440fd7f5cL; 0x3b5bdbf40fda3525L;
           0x6c32ce29068ea43fL; 0x6d3acee71d04876cL; 0xa50d8bb17064e18fL;
           0x9e524fd18fe5dd6fL; 0xef6f78b841ba5737L; 0x852bd629077b4d10L;
           0xd0fa60718a9cc04fL; 0x502588050539d4faL; 0xa6127a7e4cf18d75L;
           0x1464eea516c0d49cL; 0xca22923599dd0959L; 0xf2c7f85f9f2ced01L;
           0x130cea4e3bbbbb6eL; 0x768d63f41215dce5L; 0x22d29aeb506177efL;
           0x3e1422a865f9429bL; 0x239f5778a55eeb2bL; 0xf49656e4ab8e2878L;
           0xe234a11e9896fbdeL; 0x78a58a2e81493b18L; 0x7d494e010f2fb79bL;
           0x45b81678f0cd19c3L; 0x12455024760975d0L; 0x44f924743c2f654cL;
           0xd6962f7b1c0e8736L; 0xa5a0fade354d0106L; 0xeb29d0cf8efbc96aL;
           0x3cdafacd7456298bL; 0x37ba52bff69e2f91L; 0x8c430385490602b6L;
           0x02c039b9d1d93b54L; 0x70c563341cef5e95L; 0xf1b633f7162f3fa4L;
           0xff0f031688ba8f3dL; 0x0400b07780b933fcL; 0xde61c2ec47133350L;
           0x49a5a9e273a54abcL; 0x328753c1c9a21c3dL; 0x4dd2bb9ecbc0dd3fL;
           0xd5eac687dc5c0d4eL; |];
      ints = [| 0; 0; 0; 4; 25; 896; 1696470608627090470; |];
      bool = true;
      float = 0x1.265bc241ee9fp-1;
      child = [| 0xd38e67fb00009188L; 0x82d65262f16ce5b1L; 0x19392fc16cb8fde3L |];
      after_split = 0x3919bb38ac8b020aL;
    };
    { seed = min_int;
      bits64 =
        [| 0x09590f27f150c2b1L; 0x7f63aa8bd4ea43d6L; 0xbc77e3955694b236L;
           0x501e7b560f8116f2L; 0x85e105df28cd57d3L; 0xb7a6003f083c812fL;
           0xbe989c9dc741db04L; 0x95b04985a6e5d6a3L; 0x5b681124520fd24aL;
           0xc52b4df53d527774L; 0xb9f3e22180515d93L; 0x0ef9285ae2f923e0L;
           0x317c0d1b81261ed1L; 0x22d32e14a0998a8fL; 0xc0586a93c2007533L;
           0xae06ef853c02b6eeL; 0x80a2898a0f1ec39aL; 0x4da14ac4ba6f52cdL;
           0x19c4df8324886803L; 0xb564f1a1465968d9L; 0x0b04caece8ae373bL;
           0x6fce4cc75e9ded04L; 0x099fd17b84029fccL; 0x8ea5b344ba5ca00aL;
           0x2522ce23d21a1aa4L; 0x7aacf13b036e368dL; 0x5376bb3dd4d37862L;
           0x581f3b1f33623e64L; 0xe1f624dc30239b18L; 0x2bd1fe6a6108bef1L;
           0x87c5809b0e744704L; 0x145f5abf2a479a46L; 0x973a96aa2e29a84aL;
           0x46ef047cb278015fL; 0xe650a6e537d46ee3L; 0x42f6e85e472eb1b4L;
           0x7553906c08e1b178L; 0xdc580677c924566aL; 0x0fadbb43fe7e0d42L;
           0x8a06960a704ce578L; 0xce782bc00f48fd62L; 0xb3a7d5d185ee2122L;
           0x1ac054d8ae3636afL; 0x8dd5139108381ae5L; 0x3771e47ccebd7f4eL;
           0xf6499bdc313252e9L; 0x27a75c7e3cb47e93L; 0xb3ba6f1c0df6927eL;
           0x985a5e3cb13c2fd4L; 0x1b9e945080c9e8bbL; 0x8fee23bab39a4372L;
           0x443c89962d961265L; 0xf74f87ddeaa5c888L; 0x95e49bdbf1c43342L;
           0x2a44ce1c2cd6ab4bL; 0x79166bcd1a4fa7e9L; 0xbb59989c15dbdf90L;
           0x3f98c008f90df1dbL; 0xa14e40a9623b431cL; 0xdd71f8ebf407d70aL;
           0xb12cc62180b02883L; 0xc08114ab2d980652L; 0x2e6217f5e3822184L;
           0x1716b6c926ba5b65L; |];
      ints = [| 0; 0; 1; 6; 13; 370; 3326394723810231707; |];
      bool = true;
      float = 0x1.f602aa518e876p-2;
      child = [| 0xfac3e6c16be663c9L; 0xeddb331f357ab20eL; 0x9ece523dbbe019f0L |];
      after_split = 0x10855d69fb23d0bcL;
    };
  ]

let test_known_answers () =
  List.iter
    (fun k ->
      let r = Sim.Rng.create k.seed in
      let what fmt = Printf.sprintf ("seed %d: " ^^ fmt) k.seed in
      Array.iteri
        (fun i v -> Alcotest.(check int64) (what "bits64 #%d" i) v (Sim.Rng.bits64 r))
        k.bits64;
      Array.iteri
        (fun i b -> Alcotest.(check int) (what "int %d" b) k.ints.(i) (Sim.Rng.int r b))
        kat_bounds;
      Alcotest.(check bool) (what "bool") k.bool (Sim.Rng.bool r);
      Alcotest.(check int64) (what "float 1.0")
        (Int64.bits_of_float k.float)
        (Int64.bits_of_float (Sim.Rng.float r 1.0));
      let c = Sim.Rng.split r in
      Array.iteri
        (fun i v -> Alcotest.(check int64) (what "child #%d" i) v (Sim.Rng.bits64 c))
        k.child;
      Alcotest.(check int64) (what "after split") k.after_split (Sim.Rng.bits64 r))
    kats

(* [skip t k] is [k] draws: after it, the stream continues with the
   [k]th output (0-based) of the known-answer streams. *)
let test_skip_known_answers () =
  List.iter
    (fun k ->
      Array.iteri
        (fun i want ->
          let r = Sim.Rng.create k.seed in
          Sim.Rng.skip r i;
          Alcotest.(check int64) (Printf.sprintf "seed %d, skip %d" k.seed i) want
            (Sim.Rng.bits64 r))
        k.bits64)
    kats

let test_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_bounds () =
  let r = Sim.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v
  done

let test_bound_one () =
  let r = Sim.Rng.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Sim.Rng.int r 1)
  done

let test_invalid_bound () =
  let r = Sim.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_split_independence () =
  let parent = Sim.Rng.create 5 in
  let child = Sim.Rng.split parent in
  (* The child stream must not simply replay the parent stream. *)
  let equal = ref 0 in
  for _ = 1 to 20 do
    if Sim.Rng.bits64 parent = Sim.Rng.bits64 child then incr equal
  done;
  Alcotest.(check bool) "streams diverge" true (!equal < 3)

let test_float_bounds () =
  let r = Sim.Rng.create 11 in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_uniformity () =
  (* Coarse chi-square-free check: each of 8 buckets gets 8-17 % of draws. *)
  let r = Sim.Rng.create 13 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Sim.Rng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.17 then Alcotest.failf "bucket %d skewed: %f" i frac)
    buckets

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Sim.Rng.create seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

let prop_bool_balanced =
  QCheck.Test.make ~name:"Rng.bool is roughly balanced" ~count:50 QCheck.small_int
    (fun seed ->
      let r = Sim.Rng.create seed in
      let trues = ref 0 in
      for _ = 1 to 1000 do
        if Sim.Rng.bool r then incr trues
      done;
      !trues > 350 && !trues < 650)

(* Any interleaving of the calls, from any seed, draws exactly what the
   boxed reference draws. A [split] compares the children's first
   outputs and carries on with the parents. *)
type op = Bits64 | Bits | Int of int | Bool | Float | Split

let op_gen =
  QCheck.Gen.(
    frequency
      [ (2, return Bits64); (2, return Bits);
        (3, map (fun b -> Int b) (frequency [ (3, int_range 1 100); (1, int_range 1 max_int) ]));
        (1, return Bool); (1, return Float); (1, return Split) ])

let print_op = function
  | Bits64 -> "bits64" | Bits -> "bits" | Int b -> Printf.sprintf "int %d" b
  | Bool -> "bool" | Float -> "float" | Split -> "split"

let prop_matches_reference =
  QCheck.Test.make ~name:"Rng = boxed Int64 SplitMix64 reference" ~count:1000
    QCheck.(pair int (make ~print:Print.(list print_op) Gen.(list_size (int_range 0 40) op_gen)))
    (fun (seed, ops) ->
      let r = Sim.Rng.create seed and f = Ref.create seed in
      List.for_all
        (function
          | Bits64 -> Sim.Rng.bits64 r = Ref.bits64 f
          | Bits -> Sim.Rng.bits r = Ref.bits f
          | Int b -> Sim.Rng.int r b = Ref.int f b
          | Bool -> Sim.Rng.bool r = Ref.bool f
          | Float -> Float.equal (Sim.Rng.float r 1.0) (Ref.float f 1.0)
          | Split -> Sim.Rng.bits64 (Sim.Rng.split r) = Ref.bits64 (Ref.split f))
        ops)

(* Every [int] draw steps the state once, whatever its bound, so
   skipping [k] equals any [k] bounded draws. *)
let prop_skip_is_draws =
  QCheck.Test.make ~name:"Rng.skip k = k bounded draws" ~count:500
    QCheck.(triple int (int_range 0 300) (int_range 1 1000))
    (fun (seed, k, bound) ->
      let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
      Sim.Rng.skip a k;
      for i = 1 to k do
        ignore (Sim.Rng.int b (1 + (i mod bound)))
      done;
      Sim.Rng.bits64 a = Sim.Rng.bits64 b)

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_bounds;
          Alcotest.test_case "bound one" `Quick test_bound_one;
          Alcotest.test_case "invalid bound" `Quick test_invalid_bound;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_uniformity;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "skip known answers" `Quick test_skip_known_answers;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_int_in_bounds; prop_bool_balanced; prop_matches_reference; prop_skip_is_draws ] );
    ]
