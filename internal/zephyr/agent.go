package zephyr

import (
	"fmt"

	"moira/internal/update"
)

// AttachToAgent registers "reload_zephyr_acls <dir> <file>..." on a
// zephyr server's update agent: after the DCM installs the ACL files,
// the server reloads its access control state from the files named,
// which the push's view hands it as kept, patched or parsed whole, and
// drops every ACL the command does not name. dir and every file resolve
// through the agent's guarded host path, so none can name a file
// outside the host's tree.
func AttachToAgent(a *update.Agent, b *Broker) {
	a.RegisterCommand("reload_zephyr_acls", func(ag *update.Agent, in *update.Install, args []string) error {
		if len(args) == 0 {
			return fmt.Errorf("reload_zephyr_acls: want a directory and its ACL files")
		}
		if err := b.reloadACLs(ag, in, args[0], args[1:]); err != nil {
			return fmt.Errorf("reload_zephyr_acls: %w", err)
		}
		return nil
	})
}
