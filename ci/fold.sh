#!/usr/bin/env bash
# Dead-code census across crate lines.
#
# `rustc` reports dead code only inside one crate, and a library's `pub`
# items count as used. This script copies every library crate's `src/`
# into one throwaway binary crate (`target/fold`), each crate a module
# `mtnet_<name>`, so `dead_code` sees the whole workspace at once. The
# only roots are the shipped entry points: the `mtnet-bench` binaries and
# examples, the workspace examples and the benchmark's `src/`. Tests are
# not roots, so an item only a test reaches counts as dead.
#
# Prints one `file:line item` per dead item or write-only field (paths as
# in the repository) and exits 0; exits non-zero when the fold does not build.
#
# Known limit: rustc counts a derived `PartialEq` (or `PartialOrd`, `Hash`)
# as a read of every field of its type, so a field that only such a
# derive and tests read is neither dead nor write-only here.
#
# Usage: ci/fold.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
fold=target/fold
rm -rf "$fold/src"
mkdir -p "$fold/src"
tar -c crates/*/src crates/bench/examples examples benchmark/src | tar -x -C "$fold/src"

# Each copied file names its own module (`crate::` becomes
# `crate::<module>::`) and every crate (`mtnet_x::` becomes
# `crate::mtnet_x::`; the exported `lens!` lives at the fold's root), and
# an entry point's `main` becomes `pub` so the fold's `main` can call it.
# `#[allow(dead_code)]` is dropped, so an allowance quiets the crate's own
# build but cannot hide an item from this census. Last, a one-line field
# write (`a.b = x;` or `a.b += x;`) becomes `let _ = x;`: rustc counts the
# place a write names as a use, so without this a field that is only ever
# written looks alive. A right-hand side that is `None` or calls
# `default()` or `collect()` stays, since `let _` cannot infer its type.
rewrite() {
    local module=$1
    shift
    perl -pi -e "s/(?<![\\w:])crate::/crate::${module}::/g;" \
        -e 's/(?<![\w:])(mtnet_\w+)::/crate::$1::/g; s/crate::mtnet_core::lens\b/crate::lens/g;' \
        -e 's/^fn main\(/pub fn main(/; s/#\[allow\(dead_code\)\]//;' \
        -e 's/^(\s*)[\w.]+\.\w+\s*\+?=(?!=)\s*+(?!None;|.*(?:default|collect)\(\))(.+);\s*\z/${1}let _ = $2;\n/' "$@"
}
main="$fold/src/main.rs"
: > "$main"
for lib in crates/*/src/lib.rs benchmark/src/lib.rs; do
    dir=${lib%/src/lib.rs}
    module=mtnet_${dir##*/}
    mapfile -t files < <(find "$fold/src/$dir/src" -name '*.rs' -not -path '*/src/bin/*' -not -path '*/benchmark/src/main.rs')
    rewrite "$module" "${files[@]}"
    echo "#[path = \"$lib\"] mod $module;" >> "$main"
done
entries=(crates/bench/src/bin/*.rs crates/bench/examples/*.rs examples/*.rs benchmark/src/main.rs)
calls=
for i in "${!entries[@]}"; do
    rewrite "entry$i" "$fold/src/${entries[$i]}"
    echo "#[path = \"${entries[$i]}\"] mod entry$i;" >> "$main"
    calls+="    let _ = entry$i::main();"$'\n'
done
printf 'fn main() {\n%s}\n' "$calls" >> "$main"

cat > "$fold/Cargo.toml" <<TOML
[package]
name = "mtnet-fold"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
serde = { path = "$root/vendor/serde" }
rand = { path = "$root/vendor/rand" }
TOML

messages=$(cargo check --offline --quiet --manifest-path "$fold/Cargo.toml" --message-format=json) || {
    echo "the fold does not build:" >&2
    printf '%s\n' "$messages" | jq -r 'select(.reason == "compiler-message") | .message.rendered' >&2
    exit 1
}
printf '%s\n' "$messages" | jq -r '
    select(.reason == "compiler-message" and .message.code.code == "dead_code")
    | .message.spans[] | select(.is_primary) | .text[0] as $t
    | "\(.file_name | ltrimstr("src/")):\(.line_start) \($t.text[($t.highlight_start - 1):($t.highlight_end - 1)])"'
