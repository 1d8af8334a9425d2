# Shared set-up for the scripts/smoke_*.sh end-to-end checks; source it
# from the repository root after setting SMOKE to the script's name (it
# prefixes every message). It makes a work directory, WORK, and builds
# the daemon there as BIN; each script removes WORK in its own cleanup.

WORK="$(mktemp -d)"
BIN="$WORK/nisqd"
go build -o "$BIN" ./cmd/nisqd

# wait_healthy BASE LOG...: poll BASE/healthz for up to ~10 s; on
# timeout print the daemon logs and exit 1.
wait_healthy() {
	base=$1
	shift
	i=0
	until curl -sf "$base/healthz" > /dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 100 ]; then
			echo "$SMOKE: daemon at $base never became healthy" >&2
			cat "$@" >&2
			exit 1
		fi
		sleep 0.1
	done
}
