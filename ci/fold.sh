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
# Prints one `file:line item` per dead item, write-only field and field
# only a derived comparison reads (paths as in the repository) and exits
# 0; exits non-zero when the fold does not build.
#
# Usage: ci/fold.sh
set -euo pipefail
cd "$(dirname "$0")/.."
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
# write (`a.b = x;` or `a.b += x;`, also through calls on the way to the
# field, as in `a.get_mut(r).b += x;`) becomes `let _ = x;`: rustc counts
# the place a write names as a use, so without this a field that is only
# ever written looks alive. A right-hand side that is `None` or calls
# `default()` or `collect()` stays, since `let _` cannot infer its type.
# A copy of a field into the same field of another value (`a.f = b.f;`)
# becomes `let _ = ();`, so a field whose only read feeds its own copy
# reads as dead too.
rewrite() {
    local module=$1
    shift
    perl -pi -e "s/(?<![\\w:])crate::/crate::${module}::/g;" \
        -e 's/(?<![\w:])(mtnet_\w+)::/crate::$1::/g; s/crate::mtnet_core::lens\b/crate::lens/g;' \
        -e 's/^fn main\(/pub fn main(/; s/#\[allow\(dead_code\)\]//;' \
        -e 's/^(\s*)[\w.]+\.(\w+)\s*=\s*[\w.]+\.\2;\s*\z/${1}let _ = ();\n/;' \
        -e 's/^(\s*)[\w.]+(?:\([^()]*\)[\w.]*)*\.\w+\s*\+?=(?!=)\s*+(?!None;|.*(?:default|collect)\(\))(.+);\s*\z/${1}let _ = $2;\n/' "$@"
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
TOML

# Third pass: rustc counts a derived `PartialEq`, `Eq`, `PartialOrd`,
# `Ord` or `Hash` as a read of every field of its type, so a field only
# such a derive (and tests) reads would look alive. Every one of those
# five derives is struck from the copy before it is checked. Where an
# entry point does compare or hash a type, rustc's error says "consider
# annotating `T` with `#[derive(..)]`" at `T`'s definition; each such
# type gets its derive list back whole, and the check repeats until the
# fold builds (three rounds today). A derive no entry point needs stays
# struck, so a field behind it is read only if live code reads it.
rm -rf "$fold/full"
cp -r "$fold/src" "$fold/full"
strike() {
    rm -rf "$fold/src"
    cp -r "$fold/full" "$fold/src"
    (cd "$fold" && find src -name '*.rs' -exec env KEEP="$1" perl -0pi -e '
        BEGIN { %keep = map { $_ => 1 } split /\n/, $ENV{KEEP} }
        my @cuts;
        while (/#\[derive\(([^)]*)\)\]/g) {
            my ($at, $len, $list, $end) = ($-[1], $+[1] - $-[1], $1, $+[0]);
            my $rest = substr($_, $end);
            $rest =~ /^[ \t]*(?:pub(?:\([^)]*\))?\s+)?(?:struct|enum|union)\b/m or next;
            my $line = 1 + (substr($_, 0, $end + $-[0]) =~ tr/\n//);
            next if $keep{"$ARGV:$line"};
            $list =~ s/\b(?:PartialEq|Eq|PartialOrd|Ord|Hash)\b,?[ \t]*//g;
            push @cuts, [$at, $len, $list];
        }
        for my $cut (reverse @cuts) { substr($_, $$cut[0], $$cut[1], $$cut[2]) }
    ' {} +)
}
keep=
while :; do
    strike "$keep"
    messages=$(cargo check --offline --quiet --manifest-path "$fold/Cargo.toml" --message-format=json 2>/dev/null) && break
    wanted=$(printf '%s\n' "$messages" | jq -r '
        select(.reason == "compiler-message") | .message | .. | objects
        | select((.message? // "") | startswith("consider annotating")) | .spans[]
        | "\(.file_name):\(.line_start)"' | sort -u)
    grown=$(printf '%s\n%s\n' "$keep" "$wanted" | sed '/^$/d' | sort -u)
    test "$grown" != "$keep" || {
        echo "the fold does not build:" >&2
        printf '%s\n' "$messages" | jq -r 'select(.reason == "compiler-message") | .message.rendered' >&2
        exit 1
    }
    keep=$grown
done
printf '%s\n' "$messages" | jq -r '
    select(.reason == "compiler-message" and .message.code.code == "dead_code")
    | .message.spans[] | select(.is_primary) | .text[0] as $t
    | "\(.file_name | ltrimstr("src/")):\(.line_start) \($t.text[($t.highlight_start - 1):($t.highlight_end - 1)])"'
