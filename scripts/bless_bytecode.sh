#!/bin/sh
# Regenerate the blessed bytecode disassembly listings under
# test/golden/bytecode/: for each FOO.sac, write the -O0 `sacc
# --dump-bytecode` output to FOO.lst; for the embedded euler1d and
# euler2d programs, write the optimised program and its bytecode under
# the default (paper) options to NAME.opt.lst.
#
# Blessing is deliberate: run this only when a change is SUPPOSED to
# move the bytecode encoding (a new opcode, a lowering change, a
# peephole pass) and commit the .lst diffs together with that change,
# so the review sees exactly how the listings moved.  Never hand-edit
# a .lst — the test suite compares the committed files bytewise.
set -eu
cd "$(dirname "$0")/.."

dune build bin/sacc.exe
for src in test/golden/bytecode/*.sac; do
  lst="${src%.sac}.lst"
  _build/default/bin/sacc.exe "$src" --O0 --dump-bytecode \
    | sed -e '/^compiled:/d' -e '/^bytecode:/d' -e '/^passes:/d' > "$lst"
  echo "blessed $lst"
done
for prog in euler1d euler2d; do
  lst="test/golden/bytecode/$prog.opt.lst"
  _build/default/bin/sacc.exe "$prog" --print --dump-bytecode \
    | sed -e '/^compiled:/d' -e '/^bytecode:/d' -e '/^passes:/d' > "$lst"
  echo "blessed $lst"
done
echo "bless_bytecode: listings regenerated (review the diff before committing)"
