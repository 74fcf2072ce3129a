"""Every `stardeform` command that CI and the tier-1 tests run, and what it prints.

An entry holds the command line after `stardeform` (split on spaces), its exit
code and, where pinned, the sha256 of its stdout and the prefix of its one
stderr line.  Its checks follow from these fields (`failures`): a pin is the
sha256 of stdout; with no prefix, stderr is empty; with one, stdout is empty
and stderr is one line that starts with it and holds no `nan` unless the
command line does.

`python tests/commands.py` runs every entry through the installed console
script from a temporary directory, with PYTHONWARNINGS=error::RuntimeWarning
and COLUMNS=80 (the width of the help pins), prints each entry that fails and
exits 1 if any did.  It imports the standard library only, so it runs where the
package is installed without its test extra.  The tier-1 tests run the same
entries in-process (`tests/test_line_reach.py`, `tests/test_cli.py`).
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional


class Entry(NamedTuple):
    argv: str
    code: int
    sha256: Optional[str] = None
    stderr: Optional[str] = None


CONFIG, ERROR = "configuration error: ", "error: "
SEEDS = (1, 7, 20261018)

TABLE = [
    # ---- verify: every suite, and the options at the edges of its kernels
    Entry("verify all", 0),
    # the CSV report; seed 22 draws a series with a zero constant term in
    # verify halfseries
    Entry("verify all --format csv --seed 22", 0),
    # every theta series, comb and one-sided inverse is cut where its terms fall
    # below 1e-16; a fixed 40-term cut left a 1e-7 tail here
    Entry("verify theta --tau=0.01,0", 0),
    # the product law's u-v windows and the chirp-sized Gaussian windows at
    # Re tau = 0.5 and 2 and at Im tau = +-1, the four corners of the bench draw
    Entry("verify dist --tau=0.5,1 --grid=-3,3,65", 0),
    Entry("verify dist --tau=2,-1", 0),
    Entry("verify dist --tau=0.5,-1 --grid=-3,3,65", 0),
    Entry("verify dist --tau=2,1", 0),
    # delta-mass sizes its start from the chirp and passes; the window of
    # sided-route-agreement at a = 1j exceeds WINDOW_PANEL_BUDGET
    Entry("verify dist --tau=0.05,5", 1, stderr="error: Gaussian window needs"),
    # the closed-form sided inverses take values near e^{1/0.02} = 5e21
    # without an overflow or a RuntimeWarning; the suite fails on its records
    Entry("verify dist --tau=0.02,0", 1),
    # at tau = 0.1 the x windows of |w| > 1.92 miss x = 0, so one of the two
    # segments of the Heaviside pair has zero length there
    Entry("verify dist --tau=0.1,0", 0),
    # verify core draws ExactPoly values per seed and compares kernel outputs by
    # the Gaussian forms they hold; verify halfseries draws the complex series
    # of its inverse check per seed, and hs_mul and hs_inverse compute on the
    # form of each HalfSeries; verify special checks the Hermite and Laguerre
    # identities with ExactPoly operators; verify starexp continues square
    # roots along batches of paths and reads only --seed; seed 7 is the default
    Entry("verify core --seed 1", 0,
          "b318dde4cb170878990a0e32d5f8f80c46e762a95607873c687b0ffd5a34591c"),
    Entry("verify core --seed 2", 0,
          "3b276fb028a371f097ab4035a603a27f4c5db16c2dfbff367142b115158089da"),
    Entry("verify core --seed 3", 0,
          "c052f38348802223f0e2bffb48837f4ed996d9fa8a48b793d20df7d98c3d5c4f"),
    Entry("verify core --seed 7", 0,
          "dccd0f1f6bafb487bab2372d1f05921ff79b33d64c9f78af3b1a7f6ea27453b7"),
    Entry("verify core --seed 20261018", 0,
          "3db18d4cf0c1871e781aafc67188141e0ade4759ecc6d77b42093e9cea101eb2"),
    Entry("verify halfseries", 0,
          "6ec63a4fbbdd02da9562642fc9797d9a4bf5665382ef4ddc4daba129ee709d3d"),
    Entry("verify halfseries --seed 1", 0,
          "97ad66b09f945bab15eb96076a723702b768fd5e5b899724c762b16332a770f4"),
    Entry("verify halfseries --seed 7", 0,
          "6ec63a4fbbdd02da9562642fc9797d9a4bf5665382ef4ddc4daba129ee709d3d"),
    Entry("verify halfseries --seed 20261018", 0,
          "a49b0f2cf3f3a82d9ab5bdd5ab06a3df44c280dfbead246d6822a02d29bd74fd"),
    Entry("verify special", 0),
    *(Entry(f"verify {suite} --seed {seed}", 0)
      for suite in ("special", "starexp") for seed in SEEDS),
    # the Bessel row sum takes its order from the grid: N = 20 on |w| <= 5,
    # and past the first table's (36) at |w| = 16
    Entry("verify special --grid=-5,5,41", 0),
    Entry("verify special --grid=-16,16,3", 0),
    # the addition check sizes its transform from max |a w|: 256 points in s
    # on |w| <= 20, where 128 dropped orders past 32 (1.6e-7)
    Entry("verify special --grid=-20,20,5", 0),
    # the table's order is 136 at |w| = 100, where 256 points in s added
    # order -120 to order 136 (1.3e-5); the transform takes 512
    Entry("verify special --grid=-100,100,3", 0),
    # residue continues square roots around contours and along gamma paths, at
    # two corners of the bench draw
    Entry("verify residue --tau=0.5,1 --nu=-1,-1 --grid=-3,3,65", 0),
    Entry("verify residue --tau=2,-1 --nu=1,1", 0),
    # ladder-discontinuity's t = 0 value is 5.0e-4 here, nonzero against the
    # 1.0e-20 that the same contours leave at t != 0
    Entry("verify residue --tau=1e6,0", 0),
    # the boundary system's determinant, 7.6e-15 here, is judged against
    # Hadamard's bound |row 1| |row 2|, not an absolute 1e-14
    Entry("verify residue --tau=1e7,0", 0),
    # coefficient-ladder's residual, 1.0e-11 here, is judged against the
    # rounding bound of the terms of size |tau/2 a| = 5e5 that it cancels
    Entry("verify residue --tau=1e12,0", 0),
    # down the real tau axis the contours sit at the fixed radii 1 and 0.5,
    # where e^{-w^2/(tau^2 s^2)} swings by e^{x^2/r^2}, x = w/tau: at 0.25 only
    # contour-radius-independence fails (1.8e-12), at 0.1 the radius-1 sum of
    # residue-dual-route moves under node doubling
    Entry("verify residue --tau=0.25,0", 1),
    Entry("verify residue --tau=0.1,0", 1, stderr="error: contour integral not converged"),
    Entry("verify vertex", 0,
          "ae5c37a7b2b5c809be0ec3c63fb9b8e0387f261cc7b6f7bcbd20086d7fab229f"),

    # ---- table: the exact families as the generic QC/Fraction loops printed
    # them; euler|bernoulli 2N print what `numbers --euler|--bernoulli N`
    # printed, 2N = 10 is a size whose series truncation 2N + 2 is below the
    # K = 24 of verify halfseries, and 2N = 0 the smallest extraction (K = 2)
    Entry("table euler 0", 0,
          "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    Entry("table euler 10", 0,
          "a43e60510e7b115bbe2f9bfe569ee6834795ec0022f01486cad17c917bfcf8fa"),
    # an odd count prints the even count below it: the odd Euler numbers are 0
    Entry("table euler 11", 0,
          "a43e60510e7b115bbe2f9bfe569ee6834795ec0022f01486cad17c917bfcf8fa"),
    Entry("table euler 20", 0,
          "d64fefb7cdbac858dda5ffbc8f83907ca2f1f92f773f35d0a020ed0985316ef1"),
    Entry("table euler 40", 0),
    Entry("table euler 60", 0,
          "b42cfeb809e48e155fcb37a4aad11daff49b9139ddc8f3255b1e8bbb35f81214"),
    Entry("table euler 120", 0,
          "22d426a1ab0e4b0cce79f2fb5d7161b765edfa1ff742f8ada36ba73597cf7aad"),
    Entry("table bernoulli 0", 0,
          "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    Entry("table bernoulli 10", 0,
          "d36b86499d016d165a2059b3bb0ecdcbba5ec90af8c5fedee0e181aa53bb190f"),
    Entry("table bernoulli 21", 0,
          "80d51e8a77b74358de90ee8ce591ed2b30ffe1c7717d66602564c69410a2c507"),
    Entry("table bernoulli 60", 0,
          "3871ad0ad206633b56c5ccd3b33b7df36db499ac520d3be14824661c179c427a"),
    Entry("table bernoulli 120", 0,
          "8156610c75b9ed2420388ae4aad3ce31f94ca9dff29691bb98492890a03e77a3"),
    # hermite reads 0.1234567 as written: its n = 2 row holds
    # tau/2 = 1234567/20000000, not a fraction near it
    Entry("table hermite 2 --tau=0.1234567,0", 0,
          "fe39931ff14dc76fccccb94b58b86c8319443ca702d019675d219137e26cee18"),
    Entry("table hermite 6 --tau=-1,0", 0),
    Entry("table hermite 20 --tau=0.5,0.25", 0,
          "d4b5b1210f7ec2815eb51470b6a9aca05bf59b3d5ad5f964a4503207949887ec"),
    Entry("table hermite 60 --tau=0.5,0.25", 0,
          "685d19af116c9d7c1bb4d0b616e4968c3fa2ccdbce19ca851c023b79b91deb04"),
    Entry("table legendre 6 --tau=0.5,0.5", 0,
          "8107eebc68ead17328878abbe8b08d81bff5c652e8f0d3f3c7e3cc9855706448"),
    Entry("table legendre 40 --tau=-1,0", 0,
          "db3f06e2cc93407fa916c6571f91d65faebb37961f9c1f17d9304aa5d9bba8f7"),
    Entry("table laguerre 4 --tau=1e308", 0),
    # tau read exactly as 3333333333333333/5000000000000000, not rounded to 2/3
    Entry("table laguerre 6 --tau=0.6666666666666666,0", 0,
          "f7865a7656e39f295e32d4ebc5a8305f0c8b5fae79dbe98fb67f1f99025813e5"),
    Entry("table laguerre 12 --tau=-1,0", 0,
          "8cf5194f971335d7da10092f9aaefbd5daa3148ea452fd7ffa3b01e2edc218f4"),
    Entry("table laguerre 12 --tau=0.5,0.25", 0,
          "62ea892a6602600e99e3b5bb1133cbc5f36b04d7c413d2856054ddc3fc07f034"),
    # |a w| > 6 at the ends of this grid (8.2 at w = +-6, 12.2 at +-9), where
    # the classical rows come from the backward recurrence
    Entry("table bessel 12 --a=1.3,0.4 --grid=-9,9,7 --tau=0.5,0.2", 0),
    # |a w| = 9 takes the backward recurrence, which rescales past 1e250
    Entry("table bessel 300 --a=1 --grid=-9,9,3", 0),

    # ---- eval, theta, residue, dist: each evaluator and side once
    *(Entry(argv, 0) for argv in (
        "eval star --f w^2 --g w^2 --tau 1,0", "eval star --f 0 --g w^2 --tau 1,0",
        "eval star --f (1+2i)w^2-w --g w^3+0.5w --tau 1,0.5",
        "eval star --f 0 --g w^2 --tau 1,0 --rational",
        "eval star --f=-w --g w^2 --tau 1,0 --rational",
        "theta --tau 1,0.5 --kind 1 --w-grid=-1,1,5",
        "residue --k 1 --nu 0.5,0.1 --tau 1,1", "residue --tol 1e-9 --radius 0.5",
        "dist --a 1,0 --side + --w-grid=-1,1,3", "dist --a 1,0 --side - --w-grid=-1,1,3",
        "dist --side + --m 2 --w-grid=-1,1,3", "dist --side pv --m 2 --w-grid=-1,1,3")),
    Entry("eval star --f w^3+2 --g w^2 --tau 1,0.5 --rational", 0,
          "47e148d1589adb8c7d3396bc061c921184ef33fbce21d033a62fd986d91cc62f"),
    # a zero, a constant and int-only operands: prints 0, w^2 + 1, 6, w^4 + w^2 + 1/8
    Entry("eval star --f 0 --g w^2 --tau 1,0.5 --rational", 0,
          "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    Entry("eval star --f w --g w --tau 2,0 --rational", 0,
          "27d070d55efeaccaa3884e2723a5f774ffdf3a06f46368b23fc97fa2f5a6aea0"),
    Entry("eval star --f 2 --g 3 --tau 0,0 --rational", 0,
          "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    Entry("eval star --f w^2 --g w^2 --tau 0.5,0 --rational", 0,
          "6c7821b63f37f8ede6a647848197ea124b3951a15bebe974e2242a58d0b7c7c2"),
    # cli.POLY_DEGREE_BUDGET = 300: the highest degree parse_poly reads, here
    # with a sparse operand (prints w^301 + 150w^299), and the first it refuses
    Entry("eval star --f=w^300 --g=w --tau 1,0 --rational", 0,
          "a82b58a6c93fa2b4474c7082885413b5824fdbb48589add682bea1890a7ce7ca"),
    Entry("eval star --f=w^301 --g=w --tau 1,0 --rational", 2,
          stderr=CONFIG + "argument --f: degree 301 exceeds POLY_DEGREE_BUDGET = 300"),
    # core.TAYLOR_ROUTE_LENGTH = 32: operands of 32 coefficients take the
    # synthetic-division route and of 33 the per-order packs; both pins were
    # taken when every product took the packs
    Entry("eval star --f=w^31-2w^17+(1+2i)w^3+0.5 --g=(0.5-1i)w^31+3w^30-w+2 --tau 1,0.5 "
          "--rational", 0, "71dfd15bb66b5db221e066e15d52e6e62bade622c235e8ca1a53b512953b2613"),
    Entry("eval star --f=w^32-2w^17+(1+2i)w^3+0.5 --g=(0.5-1i)w^32+3w^31-w+2 --tau 1,0.5 "
          "--rational", 0, "b36c62ce3d5a5fb958a70d2d06dc8a82d19f70509b99175c06bd4ed2f99f78b5"),
    # the float top term of f^(K) g^(K) overflows, so the product is refused
    # before the loop forms its sum
    *(Entry(f"eval star --f=w^{d} --g=w^{d} --tau 1,0", 2,
            stderr=CONFIG + "the float product is not finite")
      for d in (150, 300)),

    # ---- vertex: witt and kcentral pass at these grades (kcentral at
    # vertex.GRADE_BUDGET = 128); the sweeps cut their probes at K, so at K = 0
    # no grade rises past the constant term, and K = 6 is the grade verify
    # vertex compares
    Entry("vertex --check witt --K 0", 0,
          "ecdc07f35dfafa80832d346629d3d00785ce7fb4bc7230e803e056c35d901301"),
    Entry("vertex --check witt --K 4", 0,
          "383cad6e0d7c51550c0493597184813989ae36043fd939eba8c064629f0f4676"),
    Entry("vertex --check witt --K 8", 0,
          "509876ca36c39c7ee06409be8d793a08aa65aa694edd984c8981a15bb727bb5d"),
    Entry("vertex --check kcentral --K 0", 0,
          "8725cc6f6b34ccb27584cb1e9ed4a878c00d8535da0862f28ed228b9fe0af4af"),
    Entry("vertex --check kcentral --K 6", 0,
          "a75b9d99076fe3379a57000a4d133272e5b4812c572f2adae00d1eae9be8f03f"),
    Entry("vertex --check kcentral --K 32", 0,
          "cc4f9253deef291c9491fbcb52ec9da1b0ba9ec34684aae9daaed53136ef0797"),
    Entry("vertex --check kcentral --K 128", 0),
    # central reports the off-diagonal brackets README describes and exits 1,
    # every other clause true, at the smallest grades (at K = 0 the ring cap
    # K + 2 zeroes a_{-7}, whose coefficient l - m is 0), at the verify grade
    # and at GRADE_BUDGET, as printed when central parts were compared as ring
    # values; it compares them in the a_j (x) u^g basis and expands no ring value
    Entry("vertex --check central --K 0", 1,
          "7796051f682fc8f263df9200bb379acaec3cea1f280a995a707254954fd56d66"),
    Entry("vertex --check central --K 1", 1,
          "636201f3a9b65a2f18440e2f3ab84bb0977d1d48a47bf3758ca85d6d2147cc0f"),
    Entry("vertex --check central --K 2", 1,
          "121ac3ca0596ca7fa11aa2c32a6f8d1de29aba10a6ba3eac6551139ffd1c01b9"),
    Entry("vertex --check central --K 6", 1,
          "8fb997e83939cae42b2b0ae87e5d8d6b7f0a5e5fa11d7a3192c011d6a5daf7ad"),
    Entry("vertex --check central --K 8", 1,
          "d7f3316b9a5781964e7175c92340b53b194f7a9d4b9a67bd9ca17538116af84b"),
    Entry("vertex --check central --K 32", 1,
          "7fe3efacf59147659d4b7b1ce0d2dae1ceb98732d8a0fba59a967ba01da720d4"),
    Entry("vertex --check central --K 128", 1,
          "6a03110fc52f8e9577164b11ff2adf72c12d35a81357f78d239a2eaca88c10a0"),

    # ---- help at 80 columns, as printed when the parser was built on every
    # call (Python 3.11 argparse); the top level and the table pins as printed
    # once each table family took only the options it reads
    Entry("--help", 0,
          "cb54e25bdc86d5002af9ab0a40ceec89b1ce1190744808f13597e6aac411b067"),
    Entry("verify --help", 0,
          "c95f3fc91042682020a9307d144fae905ed7a1587d0de915593e066013c61a44"),
    Entry("table --help", 0,
          "6a8a72f8a3d6d7c3fdf05596b4f6321951c8b811536a3b2a8409f284a7e75d85"),
    Entry("table euler --help", 0,
          "d0173ca380d004a4881f5b0b4c9ccd24525ee82198405468867a6ae550559004"),
    Entry("table hermite --help", 0,
          "57f440ad85f7a89bba58b9e49d4fb57c5b5642b0c55c546eba02e43f62d4785b"),
    Entry("table bessel --help", 0,
          "1a7da089cf7aa36e9fdf1a2b49b702a147b8286e72216a9ec2ed1b7e3ef08cd6"),
    Entry("eval --help", 0,
          "2191e2f86f96b0d86ce22af292fd311d0a5668258e8cefd803231696671e6ab0"),
    Entry("eval star --help", 0,
          "cf209edef299ffc70e6ddf9df4ec47f1e928b0ddb23ce302b4411ee8037934ff"),
    Entry("theta --help", 0,
          "8fd0ba2d31b957a4559404ba3631ec8e09d6c47a919a819319da33dc5d77181c"),
    Entry("residue --help", 0,
          "bdfce3e08f2c12b5b291333bbf7e3fc211e22b219ceb9424ed801259de9dc430"),
    Entry("dist --help", 0,
          "bb3b90ffed0e552d7b15e662e1bfd44abf67c16ae281d28cfdf7bc338e5707d6"),
    Entry("vertex --help", 0,
          "c39077f50548542bf36a6aeb08ae57d62a650740c0631ad96e984cf43e8d78bd"),

    # ---- bad input, one configuration error line each.  Each misbehaved before
    # option values were typed at the parser: a traceback, a printed nan, a
    # silent pass or a message in another format
    *(Entry(argv, 2, stderr=CONFIG) for argv in (
        "table hermite 5 --tau abc", "table legendre 3 --tau abc", "table laguerre 3 --tau 0",
        "table bessel 2 --grid 0,1", "table bessel 2 --grid=-1e308,1e308,3",
        "theta --w-grid 1,2", "theta --w-grid=-1e308,1e308,3", "theta --tau=-2,0",
        "dist --w-grid 0,1,0", "dist --w-grid=-1e308,1e308,3", "dist --a abc",
        "dist --tau nan,0", "dist --m 0", "dist --m -2", "dist --side pv --a 1,0",
        "eval star --f w --g w --tau nan,0", "eval star --f w --g w --tau inf",
        "eval star --f w^2 --g w^2 --tau 1e308,0", "verify core --tol nan",
        "verify core --tol=-1", "verify core --tau=--", "vertex --check witt --K -1",
        "residue --k 170 --nu=600,0", "table euler -3", "table euler",
        # residue.CONTOUR_NODE_BUDGET + 1, refused before any node array is built
        "residue --nodes=65537",
        # options that the family does not read: euler reads no --tau
        "table euler 12 --tau=0.5,0", "table hermite 6 --a=2",
        # a nonzero number below the float range, which an exact command would
        # otherwise read at any exponent
        "table hermite 3 --tau=1e-400", "table hermite 3 --tau=0e99999999999999999999",
        "eval star --f=1e-400*w --g=w --rational",
        # not subcommands: conjecture went, and the tables took the numbers
        "conjecture 3 --tau abc", "conjecture -1", "conjecture 0",
        "conjecture 2 --tau=10,1e308", "numbers --euler -3", "numbers",
        # finite values at the edge of the float range; at 1e308 the contour
        # density's 1/tau underflows
        "theta --tau=--", "theta --w-grid=-1e308,0,2", "residue --k=171",
        "residue --nu=1,1e308", "dist --side pv --m 172", "verify residue --tau=1e308,1e308")),

    # ---- ROADMAP item 23: at real tau = 1e3 theta and dist refuse, although
    # theta is 1.0 to print precision there; quasi-periodicity forms theta(w +
    # i tau), whose terms reach e^tau.  A mend of the item moves these exit codes
    *(Entry(argv, 2, stderr=CONFIG + "a tau-expression is outside the float range")
      for argv in ("verify theta --tau=1000,0", "theta --tau=1000,0",
                   "verify dist --tau=1000,0")),

    # ---- kernel failures, one error line each: a contour sum that overflows, a
    # theta series past its term budget, a Gaussian window past its panel budget,
    # a half-series inversion past its order budget, a coefficient past the
    # interpreter's integer-to-text limit, a grade past vertex.GRADE_BUDGET
    *(Entry(argv, 1, stderr=ERROR) for argv in (
        "residue --radius 1e-300", "theta --tau 1e-300,0 --w-grid=-1,1,3",
        "dist --tau 1e-300,0", "dist --tau=1,1e308",
        # the refined quadrature refuses the Pf transform at m = 61
        "dist --side pv --m 61 --tau=0.6,0.9 --w-grid=0.3,0.6,2",
        "table euler 2000", "table bernoulli 2000", "table hermite 60 --tau=1e308",
        "table bessel 2 --a=1e308", "table bessel 2 --tau=1e308", "table bessel 3 --a=1,1e300",
        "vertex --check central --K 129")),
]


def failures(entry: Entry, code, out: bytes, err: str) -> list:
    """What one run of the entry got wrong, from its exit code, stdout bytes
    and stderr text; empty when the run passes."""
    wrong = []
    if code != entry.code:
        wrong.append(f"exit code {code}, not {entry.code}")
    digest = hashlib.sha256(out).hexdigest()
    if entry.sha256 is not None and digest != entry.sha256:
        wrong.append(f"stdout sha256 {digest}")
    lines = err.splitlines()
    if entry.stderr is None:
        stray = bool(err)
    else:
        stray = bool(out) or len(lines) != 1 or not lines[0].startswith(entry.stderr) \
            or ("nan" in err and "nan" not in entry.argv)
    if stray:
        wrong.append(f"{len(out)} bytes on stdout, stderr {err!r}")
    return wrong


def run_in_process(main, argv: str) -> tuple:
    """(exit code, stdout bytes, stderr text) of main(argv.split()) in this
    process; the code of a SystemExit (as --help ends) is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


def run_installed() -> int:
    """Run every entry through the installed console script; 1 if any fails."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", "COLUMNS": "80"}
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        for entry in TABLE:
            proc = subprocess.run(["stardeform", *entry.argv.split()], cwd=cwd, env=env,
                                  capture_output=True)
            wrong = failures(entry, proc.returncode, proc.stdout, proc.stderr.decode())
            if wrong:
                failed += 1
                print(f"stardeform {entry.argv}: {'; '.join(wrong)}")
    print(f"{len(TABLE) - failed} of {len(TABLE)} commands passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_installed())
