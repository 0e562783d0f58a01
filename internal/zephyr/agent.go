package zephyr

import (
	"fmt"

	"moira/internal/update"
)

// AttachToAgent registers the "reload_zephyr_acls <destDir>" command on a
// zephyr server's update agent: after the DCM installs the ACL files, the
// server reloads its access control state from them. destDir resolves
// through the agent's guarded host path, so it cannot name a directory
// outside the host's tree.
func AttachToAgent(a *update.Agent, b *Broker) {
	a.RegisterCommand("reload_zephyr_acls", func(ag *update.Agent, _ *update.Install, args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("reload_zephyr_acls: want 1 arg, got %d", len(args))
		}
		dir, err := ag.HostPath(args[0])
		if err != nil {
			return fmt.Errorf("reload_zephyr_acls: %s: %w", args[0], err)
		}
		return b.LoadACLDir(dir)
	})
}
